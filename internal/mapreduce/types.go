// Package mapreduce implements the Hadoop MapReduce engine of the vHadoop
// platform: a jobtracker on the master VM, tasktrackers on the worker VMs,
// and jobs whose map, combine, shuffle, sort and reduce phases run real user
// code over real records while their I/O, CPU and network costs advance the
// simulation's virtual clock.
//
// The engine reproduces the Hadoop 0.20 behaviours the paper's experiments
// depend on: heartbeat-driven pull scheduling with data-locality preference,
// per-task JVM setup overhead, map-side sort/spill with multi-pass merges
// when outputs outgrow the sort buffer, shuffle over the virtual network,
// replicated HDFS output writes, task re-execution on tasktracker failure,
// and optional speculative execution.
package mapreduce

import (
	"vhadoop/internal/hdfs"
	"vhadoop/internal/sim"
)

// KV is one intermediate or output record: a real key/value pair plus the
// virtual bytes it stands for. It is the same shape as hdfs.Record so data
// moves between the layers without conversion.
type KV = hdfs.Record

// Emit receives a record produced by a Mapper, Combiner or Reducer. It may
// be called only during the Map, Close or Reduce call it was passed to:
// the engine reuses it for the next task.
type Emit func(key string, value any, size float64)

// Mapper transforms one input record into intermediate records.
type Mapper interface {
	Map(key string, value any, emit Emit)
}

// ClosingMapper is a Mapper that also emits records when its split ends
// (Hadoop's cleanup/close hook) — canopy generation needs this to flush the
// canopies accumulated over the whole split.
type ClosingMapper interface {
	Mapper
	Close(emit Emit)
}

// Reducer folds all values of one key into output records. Combiners are
// Reducers run on map-side partial groups.
//
// As in Hadoop's value iterator, the values slice is scratch owned by the
// engine and reused for the next key group: a Reducer must copy it (or the
// values it needs) if it retains anything past the Reduce call.
type Reducer interface {
	Reduce(key string, values []any, emit Emit)
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(key string, value any, emit Emit)

// Map calls f.
func (f MapperFunc) Map(key string, value any, emit Emit) { f(key, value, emit) }

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key string, values []any, emit Emit)

// Reduce calls f.
func (f ReducerFunc) Reduce(key string, values []any, emit Emit) { f(key, values, emit) }

// CostModel translates record counts and virtual bytes into VCPU seconds.
// Real user code runs natively (its wall-clock cost is free); the model
// charges the virtual time the same work would take on the testbed's cores.
type CostModel struct {
	MapCPUPerByte       float64 // map function cost per virtual input byte
	MapCPUPerRecord     float64 // map function cost per real record
	CombineCPUPerRecord float64
	SortCPUPerByte      float64 // sort/merge cost per virtual byte
	ReduceCPUPerByte    float64 // reduce function cost per virtual shuffled byte
	ReduceCPUPerRecord  float64
	TaskSetupCPU        float64 // JVM launch + task init, VCPU seconds
}

// JobSpec is the immutable description of one MapReduce job: its input,
// output, task counts, user code and cost model. Everything that varies per
// submission rather than per job — tenant account, priority, whether to
// retain output records — travels as SubmitOptions instead.
type JobSpec struct {
	Name       string
	Input      []string // HDFS files; one map task per block by default
	Output     string   // HDFS directory for reduce output ("" discards)
	NumReduces int
	// NumMaps overrides the split count (MRBench's -maps flag): the input
	// is re-chopped into exactly this many equal-sized splits. 0 keeps the
	// default of one map task per HDFS block.
	NumMaps int
	// SideInput lists HDFS files every map task reads during setup — the
	// distributed-cache pattern Mahout uses to ship the current cluster
	// state to all mappers each iteration.
	SideInput []string

	NewMapper   func() Mapper
	NewReducer  func() Reducer // nil: map-only job
	NewCombiner func() Reducer // optional map-side combine

	// Partition picks the reduce for a key; nil uses hash partitioning.
	Partition func(key string, numReduces int) int

	Cost CostModel
}

// TaskKind distinguishes map from reduce tasks.
type TaskKind int

// Task kinds.
const (
	MapTask TaskKind = iota
	ReduceTask
)

func (k TaskKind) String() string {
	if k == MapTask {
		return "map"
	}
	return "reduce"
}

// TaskState is a task's lifecycle state.
type TaskState int

// Task states.
const (
	TaskPending TaskState = iota
	TaskRunning
	TaskDone
)

// JobStats summarises a completed job.
type JobStats struct {
	Name string
	// Tenant is the account the job was submitted under ("" for none).
	Tenant      string
	Submitted   sim.Time
	Finished    sim.Time
	Runtime     sim.Time
	MapTasks    int
	ReduceTasks int
	// LocalMaps counts map tasks that read a block replica on their own VM.
	LocalMaps int
	// ShuffledBytes is the total map-output volume moved to reducers.
	ShuffledBytes float64
	// SpillBytes is extra disk traffic from sort-buffer overflow merges.
	SpillBytes float64
	// OutputBytes is the virtual size of the job output.
	OutputBytes float64
	// OutputRecords is the number of real output records.
	OutputRecords int
	// Attempts counts task executions including re-executions and
	// speculative duplicates.
	Attempts int
	// MapSeconds and ReduceSeconds accumulate the runtimes of the winning
	// task attempts — the slot-second usage fair-share scheduling accounts
	// against tenants.
	MapSeconds    sim.Time
	ReduceSeconds sim.Time
}
