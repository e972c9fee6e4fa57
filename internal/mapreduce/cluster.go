package mapreduce

import (
	"errors"
	"fmt"
	"strconv"

	"vhadoop/internal/hdfs"
	"vhadoop/internal/obs"
	"vhadoop/internal/sim"
	"vhadoop/internal/xen"
)

// errAttemptKilled unwinds a speculative attempt made redundant by the
// winning one.
var errAttemptKilled = errors.New("mapreduce: attempt superseded")

// errPreempted unwinds a running attempt the scheduler reclaimed from an
// over-share tenant; unlike a failure it does not burn the task's attempt
// budget.
var errPreempted = errors.New("mapreduce: attempt preempted")

// ErrJobKilled is the terminal error of a job ended by Handle.Kill, which no
// production path calls. The job service does not kill jobs over quota: it
// fails them with jobsvc.ErrUnschedulable.
var ErrJobKilled = errors.New("mapreduce: job killed")

// The engine's fixed calibration: Hadoop 0.20.2 defaults scaled to the
// testbed.
const (
	// jobSetupTime is the jobtracker-side job init/commit overhead.
	jobSetupTime sim.Time = 2.5
	// maxSpillPasses caps the extra merge passes of a map-side spill.
	maxSpillPasses int = 2
	// fetchOverhead is the reducer-side fixed cost per map-output fetch
	// (HTTP connection setup and the tasktracker's shuffle servlet). It is
	// what makes many-map jobs over tiny data slower on bigger clusters.
	fetchOverhead sim.Time = 0.04
	// taskDirtyRate is the page-dirty rate a running task contributes to its
	// VM (feeds the live-migration working-set model). I/O-bound tasks dirty
	// buffers, not all of RAM.
	taskDirtyRate float64 = 12e6
	// heartbeatBytes is the size of one tasktracker heartbeat message.
	heartbeatBytes float64 = 256
)

// Config carries the engine parameters of the paper's Hadoop Module
// (map.tasks.maximum, reduce.tasks.maximum and friends).
type Config struct {
	MapSlots    int // map.tasks.maximum per tasktracker
	ReduceSlots int // reduce.tasks.maximum per tasktracker

	HeartbeatInterval sim.Time // tasktracker heartbeat period
	TrackerTimeout    sim.Time // declare a tracker dead after this silence

	SortBufferBytes float64 // io.sort.mb: map output buffer before spilling

	Speculative         bool
	SpeculativeFraction float64 // maps completed before speculating
	SpeculativeSlowdown float64 // task slower than this x mean is a straggler

	MaxAttempts int // per-task execution attempts before the job fails

	// DisableLocality turns off data-local scheduling and delay scheduling
	// (an ablation: what locality-blind assignment costs).
	DisableLocality bool
}

// DefaultConfig mirrors Hadoop 0.20.2 defaults scaled to the testbed.
func DefaultConfig() Config {
	return Config{
		MapSlots:            2,
		ReduceSlots:         1,
		HeartbeatInterval:   3.0, // Hadoop 0.20's minimum heartbeat period
		TrackerTimeout:      30,
		SortBufferBytes:     100e6,
		Speculative:         false,
		SpeculativeFraction: 0.75,
		SpeculativeSlowdown: 1.5,
		MaxAttempts:         4,
	}
}

// Tracker is a tasktracker daemon on one worker VM. The daemon itself
// (and the VM it runs on) is machine state, while the slot ledger,
// liveness view and running-task set are the jobtracker's scheduling
// view of the tracker, read and written from the scheduler's context.
type Tracker struct {
	VM *xen.VM

	// Jobtracker-owned scheduling view.
	mapFree    int
	reduceFree int
	lastHB     sim.Time
	dead       bool
	running    map[*task]bool

	// Machine-side daemon state: a wedged daemon thread hangs on the VM.
	hungUntil sim.Time
}

// Alive reports whether the tracker is serving.
func (tr *Tracker) Alive() bool {
	return !tr.dead && tr.VM.State() != xen.StateCrashed && tr.VM.State() != xen.StateShutdown
}

// Hang silences the tracker's heartbeats until the given virtual time
// without killing its VM or the tasks it is running (a long GC pause or a
// wedged daemon thread). If the silence outlasts TrackerTimeout the
// jobtracker declares the tracker dead while its tasks keep running — the
// zombie-tasktracker scenario whose late completions must be discarded.
func (tr *Tracker) Hang(until sim.Time) {
	if until > tr.hungUntil {
		tr.hungUntil = until
	}
}

// DecommissionTracker removes a tasktracker from service, re-queueing its
// tasks (the cloud service's scale-in path).
func (c *Cluster) DecommissionTracker(tr *Tracker) { c.declareDead(tr) }

// Cluster is one Hadoop MapReduce instance: a jobtracker on the master VM
// plus tasktrackers on worker VMs, sharing an HDFS instance.
type Cluster struct {
	engine   *sim.Engine
	master   *xen.VM
	dfs      *hdfs.Cluster
	cfg      Config
	trackers []*Tracker

	// pending is the cross-job queue of schedulable tasks, ordered by job
	// priority (descending) with submission order breaking ties — at the
	// default priority 0 it degenerates to the original FIFO.
	pending []*task
	jobs    []*job
	stopped bool

	// ledgers maps a tenant name to its running-slot ledger. It is only
	// looked up, never iterated (map order must stay off every
	// deterministic path): jobs and job-service tenants resolve their
	// ledger once and keep the pointer.
	ledgers map[string]*TenantLedger

	obs   *obs.Plane // nil outside core.NewPlatform; every use is guarded
	instr *instruments

	lastReduceAssign sim.Time // reduce ramp-up throttle (see assign)
	reduceAssigned   bool

	beats *sim.Lane // the heartbeats' interval timers (see heartbeatLane)

	scratch     recordScratch // the record path's reused buffers (see mapOutput)
	freeAttempt *attempt      // attempt records a watcher finished with, linked through next
}

// NewCluster creates a MapReduce cluster with the jobtracker on master,
// storing data in dfs. Call AddTracker for each worker, then Start.
func NewCluster(e *sim.Engine, cfg Config, master *xen.VM, dfs *hdfs.Cluster) *Cluster {
	if cfg.MapSlots < 1 || cfg.ReduceSlots < 0 {
		panic("mapreduce: invalid slot configuration")
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 1
	}
	return &Cluster{
		engine: e, master: master, dfs: dfs, cfg: cfg,
		ledgers: make(map[string]*TenantLedger),
	}
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Reconfigure applies a new configuration to the running cluster — the
// MapReduce Tuner's parameter lever. Slot-count changes propagate to the
// tasktrackers' free-slot counters; everything else takes effect for
// subsequently scheduled tasks; a heartbeat interval, for the next interval
// each daemon waits out.
func (c *Cluster) Reconfigure(cfg Config) {
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 1
	}
	if cfg.HeartbeatInterval != c.cfg.HeartbeatInterval {
		c.beats = nil // timers on the old lane still fire when they were due
	}
	for _, tr := range c.trackers {
		tr.mapFree += cfg.MapSlots - c.cfg.MapSlots
		tr.reduceFree += cfg.ReduceSlots - c.cfg.ReduceSlots
	}
	c.cfg = cfg
}

// Trackers returns all tasktrackers in registration order.
func (c *Cluster) Trackers() []*Tracker { return c.trackers }

// AddTracker registers a tasktracker on vm.
func (c *Cluster) AddTracker(vm *xen.VM) *Tracker {
	tr := &Tracker{
		VM:         vm,
		mapFree:    c.cfg.MapSlots,
		reduceFree: c.cfg.ReduceSlots,
		running:    make(map[*task]bool),
	}
	c.trackers = append(c.trackers, tr)
	return tr
}

// Start launches the heartbeat daemons and the jobtracker's failure
// detector. Call Stop when the experiment's driver is finished so the
// simulation can drain.
func (c *Cluster) Start() {
	for _, tr := range c.trackers {
		c.StartTracker(tr)
	}
	c.engine.At(c.engine.Now(), c.startMonitor)
}

// StartTracker launches the heartbeat daemon for one tracker — used by
// Start, and directly for trackers joining a running cluster (elastic
// scale-out).
func (c *Cluster) StartTracker(tr *Tracker) {
	h := &heartbeat{c: c, tr: tr}
	h.beatFn, h.sendFn, h.deliverFn = h.beat, h.send, h.deliver
	c.engine.At(c.engine.Now(), h.arm)
}

// Stop shuts down the daemons after their current sleep.
func (c *Cluster) Stop() { c.stopped = true }

// heartbeat is the tasktracker main loop: report in, then pull work for any
// free slots. It never blocks except on a paused VM, so it runs as a chain
// of engine timers, not a process; its steps are bound once as method
// values, so a round allocates nothing. A paused VM (live-migration
// stop-and-copy) holds the send on its gate, delaying the heartbeat exactly
// as the real daemon would.
type heartbeat struct {
	c                         *Cluster
	tr                        *Tracker
	beatFn, sendFn, deliverFn func()
}

// arm waits out one heartbeat interval, unless the daemon has ended.
func (h *heartbeat) arm() {
	if h.c.stopped || !h.tr.Alive() {
		return
	}
	h.c.heartbeatLane().After(h.beatFn)
}

// heartbeatLane returns the lane the heartbeats' interval timers queue on:
// every timer waits HeartbeatInterval, so they need no heap. The lane is
// started on first use, and again after Reconfigure changed the interval,
// with room for a timer per tracker.
func (c *Cluster) heartbeatLane() *sim.Lane {
	if c.beats == nil {
		c.beats = c.engine.NewLane(c.cfg.HeartbeatInterval)
		c.beats.Grow(len(c.trackers))
	}
	return c.beats
}

// beat runs when the interval is up.
func (h *heartbeat) beat() {
	if h.c.stopped || !h.tr.Alive() {
		return
	}
	if h.c.engine.Now() < h.tr.hungUntil {
		h.arm() // hung daemon: heartbeat-silent, but the VM lives on
		return
	}
	h.send()
}

// send is xen.VM.Message to the jobtracker: free on loopback, otherwise
// held while the VM is paused, then one message delay. A jobtracker that
// is down ends the daemon, as a failed Message ends a process.
func (h *heartbeat) send() {
	vm, master := h.tr.VM, h.c.master
	if vm == master {
		h.deliver()
		return
	}
	if !vm.UnpausedOr(h.sendFn) {
		return
	}
	// An error means the jobtracker is down, so the daemon ends; nothing
	// waits on a heartbeat to read why.
	d, err := vm.MessageDelay(master, heartbeatBytes)
	if err != nil {
		return
	}
	h.c.engine.After(d, h.deliverFn)
}

// deliver is the jobtracker receiving the heartbeat.
func (h *heartbeat) deliver() {
	h.tr.lastHB = h.c.engine.Now()
	h.c.assign(h.tr)
	h.arm()
}

// startMonitor starts the jobtracker's failure detector, a timer chain:
// every third of the tracker timeout, trackers silent past the timeout
// (crashed VM, or a migration downtime long enough to miss many
// heartbeats) are declared dead and their tasks re-executed elsewhere.
func (c *Cluster) startMonitor() {
	period := c.cfg.TrackerTimeout / 3
	if period <= 0 {
		period = 10
	}
	var check func()
	arm := func() {
		if !c.stopped {
			c.engine.After(period, check)
		}
	}
	check = func() {
		now := c.engine.Now()
		for _, tr := range c.trackers {
			if tr.dead {
				continue
			}
			silent := now-tr.lastHB > c.cfg.TrackerTimeout
			if silent || !tr.Alive() {
				c.declareDead(tr)
			}
		}
		arm()
	}
	arm()
}

// declareDead removes a tracker from service and re-queues its in-flight
// tasks plus — for still-running jobs — its completed map tasks, whose
// outputs lived on the dead VM's disk.
func (c *Cluster) declareDead(tr *Tracker) {
	if tr.dead {
		return
	}
	tr.dead = true
	if c.instr != nil {
		c.instr.trackerDeaths.Inc()
	}
	c.obs.Eventf(obs.KindCluster, "jobtracker: tasktracker %s declared dead", tr.VM.Name)
	// Requeue the tracker's running tasks in deterministic (job, kind,
	// index) order — tr.running is a map, and requeue order decides the
	// scheduler's pending queue after a failure.
	requeueRunning := func(ts []*task) {
		for _, t := range ts {
			if tr.running[t] {
				delete(tr.running, t)
				c.requeue(t)
			}
		}
	}
	for _, j := range c.jobs {
		requeueRunning(j.maps)
		requeueRunning(j.reduces)
	}
	for _, j := range c.jobs {
		if j.finished() {
			continue
		}
		for _, t := range j.maps {
			if t.state == TaskDone && t.tracker == tr {
				j.mapsDone--
				c.requeue(t)
			}
		}
	}
}

// requeue puts a task back in the pending queue for re-execution, failing
// the job if the task is out of attempts.
func (c *Cluster) requeue(t *task) {
	if t.job.finished() {
		return
	}
	if t.attempts >= c.cfg.MaxAttempts {
		t.job.fail(fmt.Errorf("mapreduce: %s task %d of %s failed %d times",
			t.kind, t.index, t.job.cfg.Name, t.attempts))
		return
	}
	t.state = TaskPending
	t.tracker = nil
	t.parts = nil
	t.partSizes = nil
	t.skips = 1 // re-executions skip the locality delay
	c.enqueuePending(t)
}

// assign hands pending tasks to tr's free slots: data-local maps first, then
// any map, then reduces.
func (c *Cluster) assign(tr *Tracker) {
	if !tr.Alive() {
		return
	}
	for tr.mapFree > 0 {
		t := c.pickMap(tr)
		if t == nil {
			break
		}
		c.launch(tr, t)
	}
	// Reduce ramp-up throttle: like Hadoop 0.20's JobQueueTaskScheduler,
	// the jobtracker hands out at most one new reduce task per scheduling
	// round (heartbeat interval), so jobs with many reduces pay roughly one
	// heartbeat of ramp-up per reduce — the growth Figure 3(b) measures.
	now := c.engine.Now()
	if c.reduceAssigned && now-c.lastReduceAssign < c.cfg.HeartbeatInterval {
		return
	}
	if tr.reduceFree > 0 {
		if t := c.pickReduce(); t != nil {
			c.launch(tr, t)
			c.lastReduceAssign = now
			c.reduceAssigned = true
		}
	}
}

// pickMap removes and returns the best pending map task for tr: one whose
// input block has a replica on tr's VM if any. Non-local assignment uses
// delay scheduling: a task must first be passed over once (giving its local
// trackers a scheduling round to claim it) before anyone may run it remotely.
func (c *Cluster) pickMap(tr *Tracker) *task {
	fallback := -1
	passed := false
	for i, t := range c.pending {
		if t.kind != MapTask || t.job.finished() {
			continue
		}
		if c.cfg.DisableLocality {
			return c.takePending(i)
		}
		if b := t.split.primary(); b != nil && c.dfs.IsLocal(b, tr.VM) {
			return c.takePending(i)
		}
		if fallback < 0 && t.skips >= 1 {
			fallback = i
		}
		passed = true
	}
	if fallback >= 0 {
		return c.takePending(fallback)
	}
	if passed {
		for _, t := range c.pending {
			if t.kind == MapTask && !t.job.finished() {
				t.skips++
			}
		}
	}
	return nil
}

// pickReduce removes and returns the oldest pending reduce task.
func (c *Cluster) pickReduce() *task {
	for i, t := range c.pending {
		if t.kind == ReduceTask && !t.job.finished() {
			return c.takePending(i)
		}
	}
	return nil
}

func (c *Cluster) takePending(i int) *task {
	t := c.pending[i]
	c.pending = append(c.pending[:i], c.pending[i+1:]...)
	return t
}

// enqueuePending inserts t into the pending queue at its job's priority
// rank: before the first queued task of a strictly lower-priority job,
// after everything at the same or higher priority. Default-priority jobs
// therefore append, preserving the original cross-job FIFO byte-for-byte.
func (c *Cluster) enqueuePending(t *task) {
	if pr := t.job.priority; pr != 0 {
		for i, q := range c.pending {
			if q.job.priority < pr {
				c.pending = append(c.pending, nil)
				copy(c.pending[i+1:], c.pending[i:])
				c.pending[i] = t
				return
			}
		}
	}
	c.pending = append(c.pending, t)
}

// sweepPending drops tasks of finished (completed, failed or killed) jobs
// from the queue so they never reach a slot.
func (c *Cluster) sweepPending() {
	kept := c.pending[:0]
	for _, t := range c.pending {
		if !t.job.finished() {
			kept = append(kept, t)
		}
	}
	c.pending = kept
}

// killJob terminates j with err: waiters unblock immediately, running
// attempts abort (their watchers release the slots), and its queued tasks
// are swept from the pending queue.
func (c *Cluster) killJob(j *job, err error) {
	if j.finished() {
		return
	}
	j.fail(err)
	c.obs.Eventf(obs.KindJob, "jobtracker: killing job %s: %v", j.cfg.Name, err)
	for _, ts := range [][]*task{j.maps, j.reduces} {
		for _, t := range ts {
			for _, proc := range t.attemptProcs {
				proc.Abort(errAttemptKilled)
			}
		}
	}
	c.sweepPending()
}

// PreemptTenant reclaims up to n running slots of the given kind from
// tenant's jobs: the youngest jobs lose their highest-indexed running,
// non-speculated attempts first (newest work has the least sunk cost).
// Preempted tasks requeue without burning attempt budget. Returns the
// number of attempts actually preempted.
func (c *Cluster) PreemptTenant(tenant string, kind TaskKind, n int) int {
	preempted := 0
	for i := len(c.jobs) - 1; i >= 0 && preempted < n; i-- {
		j := c.jobs[i]
		if j.tenant != tenant || j.finished() {
			continue
		}
		tasks := j.maps
		if kind == ReduceTask {
			tasks = j.reduces
		}
		for ti := len(tasks) - 1; ti >= 0 && preempted < n; ti-- {
			t := tasks[ti]
			if t.state != TaskRunning || t.speculated || len(t.attemptProcs) != 1 {
				continue
			}
			t.attemptProcs[0].Abort(errPreempted)
			preempted++
		}
	}
	return preempted
}

// SlotTotals returns the cluster's configured slot capacity across alive
// tasktrackers.
func (c *Cluster) SlotTotals() (maps, reduces int) {
	for _, tr := range c.trackers {
		if tr.Alive() {
			maps += c.cfg.MapSlots
			reduces += c.cfg.ReduceSlots
		}
	}
	return maps, reduces
}

// TenantLedger counts the slots one tenant's jobs occupy. launch and
// onTaskExit keep it current through the pointer each job resolved at
// Submit.
type TenantLedger struct{ maps, reduces int }

// Running returns the number of slots the tenant's jobs occupy right now.
func (l *TenantLedger) Running() (maps, reduces int) { return l.maps, l.reduces }

// TenantLedger returns tenant's running-slot ledger, creating an empty one
// on first use. The pointer stays valid for the cluster's lifetime, so a
// caller that reads the ledger often resolves it once.
func (c *Cluster) TenantLedger(tenant string) *TenantLedger {
	l := c.ledgers[tenant]
	if l == nil {
		l = &TenantLedger{}
		c.ledgers[tenant] = l
	}
	return l
}

// LocalityView is a snapshot of which datanodes can feed a local map task
// right now: free[i] is set when datanode i (hdfs.Datanode.Index) is alive
// on a VM whose tasktracker is alive with a free map slot. The zero value
// is an empty view. It carries no invalidation — a view is valid only
// until the proc that refreshed it next yields, which is why the job
// service refreshes its one view every scheduler tick.
type LocalityView struct {
	dfs  *hdfs.Cluster
	free []bool
}

// RefreshLocalityView overwrites v with the cluster's current placement
// state, reusing v's buffer: a warm view refreshes without allocating.
func (c *Cluster) RefreshLocalityView(v *LocalityView) {
	dns := c.dfs.Datanodes()
	v.dfs = c.dfs
	if cap(v.free) < len(dns) {
		v.free = make([]bool, len(dns))
	}
	v.free = v.free[:len(dns)]
	clear(v.free)
	for _, tr := range c.trackers {
		if !tr.Alive() || tr.mapFree <= 0 {
			continue
		}
		for i, d := range dns {
			if d.VM == tr.VM && d.Alive() {
				v.free[i] = true
			}
		}
	}
}

// Score reports the fraction of the named input files' blocks that have a
// replica on an alive tasktracker with a free map slot — the placement
// signal the job service's locality-aware dispatch uses. Files not (yet)
// in HDFS contribute no blocks; with no resolvable blocks at all the
// score is 0.
func (v *LocalityView) Score(inputs []string) float64 {
	blocks, local := 0, 0
	for _, name := range inputs {
		// Lookup failing means "not yet staged"; such a file contributes no
		// blocks to the score.
		f, err := v.dfs.Lookup(name)
		if err != nil {
			continue
		}
		blocks += len(f.Blocks)
		for _, b := range f.Blocks {
			for _, d := range b.Replicas {
				if v.free[d.Index()] {
					local++
					break
				}
			}
		}
	}
	if blocks == 0 {
		return 0
	}
	return float64(local) / float64(blocks)
}

// attempt is one task attempt and the watcher that routes its outcome
// back to the scheduler: both process records, and both bodies bound once
// as method values, so a launch from the Cluster's free list allocates no
// process. The watcher puts the record back as its last statement, and
// only when the attempt ended cleanly (sim.Proc.Reusable): a failed,
// preempted or killed attempt may still sit on a latch or solver job that
// will wake it, so its record is dropped.
type attempt struct {
	c       *Cluster
	tr      *Tracker
	t       *task
	sp      *obs.Span // nil without a plane
	proc    sim.Proc  // the attempt; t.attemptProcs holds &proc while it runs
	watcher sim.Proc
	run     func(*sim.Proc) // runTask, bound once
	watch   func(*sim.Proc) // await, bound once
	next    *attempt        // free-list link, set only while on the list
}

func (a *attempt) runTask(p *sim.Proc) { a.c.runTask(p, a.tr, a.t) }

// await is the watcher's body: it waits out the attempt, drops it from its
// task's running attempts and reports the outcome.
func (a *attempt) await(p *sim.Proc) {
	a.proc.Done().Wait(p)
	c, t := a.c, a.t
	for i, ap := range t.attemptProcs {
		if ap == &a.proc {
			t.attemptProcs = append(t.attemptProcs[:i], t.attemptProcs[i+1:]...)
			break
		}
	}
	c.onTaskExit(a.tr, t, a.proc.Err(), a.sp)
	if a.proc.Reusable() {
		a.tr, a.t, a.sp = nil, nil, nil
		a.next, c.freeAttempt = c.freeAttempt, a
	}
}

// launch starts one attempt of t on tr and a watcher that routes the
// attempt's outcome back to the scheduler.
func (c *Cluster) launch(tr *Tracker, t *task) {
	if t.kind == MapTask {
		tr.mapFree--
		t.job.ledger.maps++
	} else {
		tr.reduceFree--
		t.job.ledger.reduces++
	}
	tr.running[t] = true
	t.state = TaskRunning
	t.tracker = tr
	t.attempts++
	t.job.stats.Attempts++
	t.startedAt = c.engine.Now()
	name := t.job.cfg.Name + ":" + t.kind.String() + strconv.Itoa(t.index) + "." + strconv.Itoa(t.attempts)
	var sp *obs.Span
	if c.obs != nil {
		sp = c.obs.Start(obs.KindTask, name, t.job.taskSpanParent(t)).SetAttr("vm", tr.VM.Name)
	}
	a := c.freeAttempt
	if a != nil {
		c.freeAttempt, a.next = a.next, nil
	} else {
		a = &attempt{c: c}
		a.run, a.watch = a.runTask, a.await
	}
	a.tr, a.t, a.sp = tr, t, sp
	c.engine.SpawnInto(&a.proc, name, a.run)
	t.attemptProcs = append(t.attemptProcs, &a.proc)
	c.engine.SpawnInto(&a.watcher, "watch:"+name, a.watch)
}

// onTaskExit releases the slot and either records completion or re-queues a
// failed attempt. sp is the attempt's span (nil without a plane); every
// path closes it with an outcome attribute.
func (c *Cluster) onTaskExit(tr *Tracker, t *task, err error, sp *obs.Span) {
	if t.kind == MapTask {
		tr.mapFree++
		t.job.ledger.maps--
	} else {
		tr.reduceFree++
		t.job.ledger.reduces--
	}
	delete(tr.running, t)
	if c.stopped || t.job.finished() {
		sp.SetAttr("outcome", "abandoned").Finish()
		return
	}
	if t.state == TaskDone && t.tracker != tr {
		// A speculative duplicate finished after the primary; discard.
		sp.SetAttr("outcome", "superseded").Finish()
		return
	}
	if err != nil {
		if tr.dead || t.state == TaskDone {
			// declareDead requeued it, or a killed duplicate unwound.
			sp.SetAttr("outcome", "unwound").Finish()
			return
		}
		if err == errPreempted {
			// Reclaimed by the fair-share scheduler, not the task's fault:
			// hand the attempt budget back and requeue at the front of its
			// priority class (skips=1 bypasses the locality delay).
			if c.instr != nil {
				c.instr.preemptions.Inc()
			}
			sp.Eventf("preempting %s%d of %s on %s", t.kind, t.index, t.job.cfg.Name, tr.VM.Name)
			sp.SetAttr("outcome", "preempted").Finish()
			t.attempts--
			c.requeue(t)
			return
		}
		if c.instr != nil {
			c.instr.taskFailures.Inc()
		}
		sp.Eventf("task %s%d of %s failed on %s: %v", t.kind, t.index, t.job.cfg.Name, tr.VM.Name, err)
		sp.SetAttr("outcome", "failed").Finish()
		c.requeue(t)
		return
	}
	if tr.dead {
		// A zombie tracker (hung past the timeout, or declared dead just as
		// its task finished) reporting success: its map output lives on a
		// node the jobtracker has written off and reducers will never fetch
		// from. Discard; declareDead already requeued the task elsewhere.
		if c.instr != nil {
			c.instr.zombieDiscards.Inc()
		}
		sp.Eventf("discarding zombie completion of %s%d of %s on %s", t.kind, t.index, t.job.cfg.Name, tr.VM.Name)
		sp.SetAttr("outcome", "zombie-discarded").Finish()
		return
	}
	if t.state == TaskDone {
		sp.SetAttr("outcome", "duplicate").Finish()
		return // duplicate completion
	}
	t.state = TaskDone
	t.tracker = tr
	t.doneIn = c.engine.Now() - t.startedAt
	if i := c.instr; i != nil {
		if t.kind == MapTask {
			i.mapSeconds.Observe(float64(t.doneIn))
		} else {
			i.reduceSeconds.Observe(float64(t.doneIn))
		}
	}
	sp.SetAttr("outcome", "done").SetFloat("seconds", float64(t.doneIn)).Finish()
	// Kill redundant speculative attempts; their slots free as they unwind.
	for _, proc := range t.attemptProcs {
		proc.Abort(errAttemptKilled)
	}
	t.job.taskCompleted(t)
}

// speculate re-queues a duplicate attempt for the straggler task, if any.
// Called from the job's speculation monitor.
func (c *Cluster) speculate(t *task) {
	if t.state != TaskRunning || t.speculated {
		return
	}
	t.speculated = true
	if c.instr != nil {
		c.instr.speculations.Inc()
	}
	c.obs.Eventf(obs.KindTask, "speculating %s%d of %s", t.kind, t.index, t.job.cfg.Name)
	c.enqueuePending(t)
}
