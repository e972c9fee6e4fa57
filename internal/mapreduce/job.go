package mapreduce

import (
	"fmt"

	"vhadoop/internal/hdfs"
	"vhadoop/internal/obs"
	"vhadoop/internal/sim"
)

// splitPart is one block's byte contribution to an input split.
type splitPart struct {
	block *hdfs.Block
	bytes float64
}

// inputSplit is the unit of map-task input: by default exactly one HDFS
// block, or an arbitrary byte range over consecutive blocks when the job
// overrides NumMaps.
type inputSplit struct {
	size    float64
	records []KV
	parts   []splitPart
}

// primary returns the block contributing the most bytes: the locality
// anchor for scheduling.
func (s *inputSplit) primary() *hdfs.Block {
	var best *hdfs.Block
	bestBytes := -1.0
	for _, part := range s.parts {
		if part.bytes > bestBytes {
			bestBytes = part.bytes
			best = part.block
		}
	}
	return best
}

// task is one map or reduce task (shared across its execution attempts).
type task struct {
	job   *job
	kind  TaskKind
	index int

	split *inputSplit // map input split

	state      TaskState
	tracker    *Tracker
	attempts   int
	startedAt  sim.Time
	doneIn     sim.Time // runtime of the successful attempt
	speculated bool
	skips      int // scheduling rounds passed over while awaiting locality

	// attempts currently executing (primary plus speculative duplicates),
	// in launch order; the winner aborts the rest, as the jobtracker kills
	// redundant attempts in Hadoop.
	attemptProcs []*sim.Proc

	// map output, one slice of records and one virtual size per reduce
	// partition (or a single partition for map-only jobs).
	parts     [][]KV
	partSizes []float64

	// per-attempt results folded into JobStats by the winning attempt
	wasLocal bool
	shuffled float64
	spilled  float64
	out      []KV
	outBytes float64

	shuffleCounted bool // this reduce already closed its share of the shuffle phase
}

// job is a submitted MapReduce job.
type job struct {
	cluster *Cluster
	cfg     JobSpec

	// Per-submission knobs (see SubmitOption).
	tenant   string
	priority int
	collect  bool // retain real output records

	ledger *TenantLedger // the tenant's running-slot ledger, resolved at Submit

	maps    []*task
	reduces []*task

	mapsDone    int
	reducesDone int
	mapDone     *sim.Done // rotating broadcast: fired on each map completion
	done        *sim.Done
	err         error
	isDone      bool

	stats   JobStats
	outputs [][]KV // per-reduce (or per-map for map-only) real output records

	// observability spans and cached handles (nil without a plane); see obs.go
	span          *obs.Span
	phaseMap      *obs.Span
	phaseShuffle  *obs.Span
	phaseReduce   *obs.Span
	shufflesDone  int
	extraAttempts *obs.Gauge // resolved once at submission; see startSpans
}

func (j *job) finished() bool { return j.isDone }

// fail completes the job with an error.
func (j *job) fail(err error) {
	if j.isDone {
		return
	}
	j.err = err
	j.isDone = true
	// Failed jobs get the same terminal timestamps as completed ones, so
	// Wait always reports a consistent (stats, err) pair.
	j.stats.Finished = j.cluster.engine.Now()
	j.stats.Runtime = j.stats.Finished - j.stats.Submitted
	if i := j.cluster.instr; i != nil {
		i.jobsFailed.Inc()
	}
	j.finishSpans()
	j.done.Fire()
	j.rotateMapSignal() // unblock any reducers so their procs can exit
}

func (j *job) rotateMapSignal() {
	old := j.mapDone
	j.mapDone = sim.NewDone()
	old.Fire()
}

// taskCompleted records a successful task and completes the job when its
// last task finishes.
func (j *job) taskCompleted(t *task) {
	j.stats.SpillBytes += t.spilled
	if i := j.cluster.instr; i != nil {
		i.spillBytes.Add(t.spilled)
		if t.kind == ReduceTask {
			i.shuffleBytes.Add(t.shuffled)
		}
		if t.outBytes > 0 && (t.kind == ReduceTask || len(j.reduces) == 0) {
			i.outputBytes.Add(t.outBytes)
		}
	}
	if t.kind == MapTask {
		if t.wasLocal {
			j.stats.LocalMaps++
		}
		j.stats.MapSeconds += t.doneIn
		j.mapsDone++
		if j.mapsDone == len(j.maps) && len(j.reduces) > 0 {
			j.phaseMap.Finish()
		}
		j.rotateMapSignal()
		if len(j.reduces) == 0 {
			if j.collect {
				j.outputs[t.index] = t.out
			}
			j.stats.OutputBytes += t.outBytes
			j.stats.OutputRecords += len(t.out)
			if j.mapsDone == len(j.maps) {
				j.complete()
			}
		}
		return
	}
	j.stats.ShuffledBytes += t.shuffled
	j.stats.ReduceSeconds += t.doneIn
	if j.collect {
		j.outputs[t.index] = t.out
	}
	j.stats.OutputBytes += t.outBytes
	j.stats.OutputRecords += len(t.out)
	j.reducesDone++
	if j.reducesDone == len(j.reduces) {
		j.complete()
	}
}

func (j *job) complete() {
	if j.isDone {
		return
	}
	j.isDone = true
	j.stats.Finished = j.cluster.engine.Now()
	j.stats.Runtime = j.stats.Finished - j.stats.Submitted
	if i := j.cluster.instr; i != nil {
		i.jobsCompleted.Inc()
		j.extraAttempts.Set(float64(j.stats.Attempts - j.stats.MapTasks - j.stats.ReduceTasks))
	}
	j.finishSpans()
	j.done.Fire()
}

// OutputRecords returns the job's real output records in partition order.
func (j *job) outputRecords() []KV {
	n := 0
	for _, part := range j.outputs {
		n += len(part)
	}
	if n == 0 {
		return nil
	}
	out := make([]KV, 0, n)
	for _, part := range j.outputs {
		out = append(out, part...)
	}
	return out
}

// Handle tracks a submitted job.
type Handle struct{ j *job }

// Wait blocks p until the job completes and returns its stats. It is safe to
// call repeatedly — on an already-finished job (completed, failed or killed)
// it returns the stored stats and error immediately, and every call returns
// the same pair.
func (h *Handle) Wait(p *sim.Proc) (JobStats, error) {
	h.j.done.Wait(p)
	return h.j.stats, h.j.err
}

// Kill terminates the job: running attempts are aborted, its pending tasks
// leave the queue, and waiters unblock with ErrJobKilled. Killing a finished
// job is a no-op. No production path kills a job: the job service preempts
// attempts instead. TestDoubleWaitAndWaitAfterKill calls it to pin the Wait
// contract of a job that ends early.
func (h *Handle) Kill() { h.j.cluster.killJob(h.j, ErrJobKilled) }

// Progress reports completed and total map and reduce tasks.
func (h *Handle) Progress() (mapsDone, maps, reducesDone, reduces int) {
	return h.j.mapsDone, len(h.j.maps), h.j.reducesDone, len(h.j.reduces)
}

// Done reports whether the job has finished.
func (h *Handle) Done() bool { return h.j.finished() }

// OutputRecords returns the real output records (valid after completion;
// nil when the job was submitted with WithCollectOutput(false)).
func (h *Handle) OutputRecords() []KV { return h.j.outputRecords() }

// SubmitOption tunes one submission of a JobSpec.
type SubmitOption func(*submitOpts)

type submitOpts struct {
	tenant   string
	priority int
	collect  bool
}

// WithTenant attributes the job to a tenant account. The scheduler's
// per-tenant slot ledger and the job service's fair-share accounting key
// off this name.
func WithTenant(name string) SubmitOption {
	return func(o *submitOpts) { o.tenant = name }
}

// WithPriority sets the job's scheduling priority (default 0). Pending
// tasks of higher-priority jobs are offered to free slots before those of
// lower-priority ones; ties keep submission order.
func WithPriority(pr int) SubmitOption {
	return func(o *submitOpts) { o.priority = pr }
}

// WithCollectOutput controls whether the job retains its real output
// records for OutputRecords (default true). Long-running services turn it
// off for jobs whose output nobody reads back.
func WithCollectOutput(keep bool) SubmitOption {
	return func(o *submitOpts) { o.collect = keep }
}

// defaultPartition is Hadoop's hash partitioner: FNV-1a over the key bytes,
// inlined so the per-emit hot path allocates neither a hash.Hash32 nor a
// []byte copy of the key. Bit-compatible with hash/fnv's New32a.
func defaultPartition(key string, numReduces int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(numReduces))
}

// Submit registers a job with the jobtracker: the client RPCs the master,
// the master charges job-setup time, input splits become map tasks (one per
// HDFS block) and everything enters the pending queue. Tasks start flowing
// at the next tasktracker heartbeats, as in Hadoop. Options attribute the
// submission to a tenant, raise its priority or turn off output
// collection; a bare Submit behaves exactly as before the options
// existed.
func (c *Cluster) Submit(p *sim.Proc, spec JobSpec, opts ...SubmitOption) (*Handle, error) {
	so := submitOpts{collect: true}
	for _, opt := range opts {
		opt(&so)
	}
	if spec.NewMapper == nil {
		return nil, fmt.Errorf("mapreduce: job %s has no mapper", spec.Name)
	}
	if spec.NumReduces > 0 && spec.NewReducer == nil {
		return nil, fmt.Errorf("mapreduce: job %s has %d reduces but no reducer", spec.Name, spec.NumReduces)
	}
	if spec.Partition == nil {
		spec.Partition = defaultPartition
	}
	j := &job{
		cluster:  c,
		cfg:      spec,
		tenant:   so.tenant,
		priority: so.priority,
		collect:  so.collect,
		ledger:   c.TenantLedger(so.tenant),
		mapDone:  sim.NewDone(),
		done:     sim.NewDone(),
	}
	j.stats.Name = spec.Name
	j.stats.Tenant = so.tenant
	j.stats.Submitted = c.engine.Now()

	// Resolve input blocks and cut them into map splits.
	var blocks []*hdfs.Block
	for _, name := range spec.Input {
		f, err := c.dfs.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %s: %w", spec.Name, err)
		}
		blocks = append(blocks, f.Blocks...)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("mapreduce: job %s has no input blocks", spec.Name)
	}
	for _, s := range makeSplits(blocks, spec.NumMaps) {
		j.maps = append(j.maps, &task{job: j, kind: MapTask, index: len(j.maps), split: s})
	}
	for r := 0; r < spec.NumReduces; r++ {
		j.reduces = append(j.reduces, &task{job: j, kind: ReduceTask, index: r})
	}
	j.stats.MapTasks = len(j.maps)
	j.stats.ReduceTasks = len(j.reduces)
	if spec.NumReduces > 0 {
		j.outputs = make([][]KV, spec.NumReduces)
	} else {
		j.outputs = make([][]KV, len(j.maps))
	}

	// Client -> jobtracker RPC plus jobtracker-side setup (staging the job
	// configuration and jar, initialising the task lists).
	c.master.Message(p, c.master, 4096)
	p.Sleep(jobSetupTime)

	c.jobs = append(c.jobs, j)
	j.startSpans()
	for _, t := range j.maps {
		c.enqueuePending(t)
	}
	for _, t := range j.reduces {
		c.enqueuePending(t)
	}
	if c.cfg.Speculative {
		c.startSpeculator(j)
	}
	return &Handle{j: j}, nil
}

// startSpeculator starts a timer chain that watches j for straggler map
// tasks every two heartbeat intervals, and schedules duplicate attempts
// once most maps have completed.
func (c *Cluster) startSpeculator(j *job) {
	var check func()
	arm := func() {
		if !c.stopped && !j.finished() {
			c.engine.After(2*c.cfg.HeartbeatInterval, check)
		}
	}
	check = func() {
		if !j.finished() {
			c.speculateStragglers(j)
			arm()
		}
	}
	c.engine.At(c.engine.Now(), arm)
}

// speculateStragglers re-queues a duplicate of every running, not yet
// speculated map of j that has run SpeculativeSlowdown times the mean
// completed map's time, once SpeculativeFraction of the maps are done.
func (c *Cluster) speculateStragglers(j *job) {
	frac := float64(j.mapsDone) / float64(len(j.maps))
	if frac < c.cfg.SpeculativeFraction || j.mapsDone == 0 {
		return
	}
	// Mean runtime of completed maps.
	var mean sim.Time
	n := 0
	for _, t := range j.maps {
		if t.state == TaskDone {
			mean += t.doneIn
			n++
		}
	}
	if n == 0 {
		return
	}
	mean /= sim.Time(n)
	now := c.engine.Now()
	for _, t := range j.maps {
		if t.state == TaskRunning && !t.speculated && now-t.startedAt > c.cfg.SpeculativeSlowdown*mean {
			c.speculate(t)
		}
	}
}

// makeSplits cuts blocks into map-task inputs: one split per block when
// numMaps is 0, otherwise numMaps equal byte ranges over the concatenated
// blocks, with records following their cumulative byte positions. Record
// sizes are non-negative (hdfs.Write enforces it), so each split's records
// are one contiguous range of the concatenation, handed out as a
// cap-limited sub-slice of a single copy. When one block holds every
// record, the ranges are sub-slices of its read-only Records, uncopied.
func makeSplits(blocks []*hdfs.Block, numMaps int) []*inputSplit {
	if numMaps <= 0 {
		splits := make([]*inputSplit, len(blocks))
		for i, b := range blocks {
			splits[i] = &inputSplit{
				size:    b.Size,
				records: b.Records,
				parts:   []splitPart{{block: b, bytes: b.Size}},
			}
		}
		return splits
	}
	var total float64
	var records []KV
	n, holders := 0, 0
	for _, b := range blocks {
		total += b.Size
		n += len(b.Records)
		if len(b.Records) > 0 {
			records = b.Records
			holders++
		}
	}
	if holders > 1 {
		records = make([]KV, 0, n)
		for _, b := range blocks {
			records = append(records, b.Records...)
		}
	}
	per := total / float64(numMaps)
	splits := make([]*inputSplit, numMaps)
	for i := range splits {
		splits[i] = &inputSplit{size: per}
	}
	// Distribute block bytes across consecutive splits. The last split
	// absorbs any floating-point residue so the loop always terminates.
	splitIdx, room := 0, per
	for _, b := range blocks {
		remaining := b.Size
		for remaining > 1e-9 {
			take := remaining
			if splitIdx < numMaps-1 && take > room {
				take = room
			}
			s := splits[splitIdx]
			s.parts = append(s.parts, splitPart{block: b, bytes: take})
			remaining -= take
			room -= take
			if room <= 1e-9 && splitIdx < numMaps-1 {
				splitIdx++
				room = per
			}
		}
	}
	// Distribute records by cumulative byte position: the split index never
	// decreases, so each split takes the run of records that maps to it.
	cum := 0.0
	lo, cur := 0, 0
	for i, r := range records {
		idx := int(cum / per)
		if idx >= numMaps {
			idx = numMaps - 1
		}
		if idx != cur {
			if lo < i {
				splits[cur].records = records[lo:i:i]
			}
			lo, cur = i, idx
		}
		cum += r.Size
	}
	if lo < len(records) {
		splits[cur].records = records[lo:len(records):len(records)]
	}
	return splits
}
