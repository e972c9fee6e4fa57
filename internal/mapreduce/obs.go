package mapreduce

import (
	"strconv"

	"vhadoop/internal/obs"
)

// taskSecondsBuckets are the histogram bounds for task runtimes: the
// testbed's tasks run seconds to a few minutes.
var taskSecondsBuckets = []float64{0.5, 1, 2, 5, 10, 20, 60, 180}

// instruments caches the cluster's metric handles so hot completion
// paths pay one nil check instead of a registry lookup.
type instruments struct {
	mapSeconds     *obs.Histogram
	reduceSeconds  *obs.Histogram
	spillBytes     *obs.Counter
	shuffleBytes   *obs.Counter
	outputBytes    *obs.Counter
	taskFailures   *obs.Counter
	zombieDiscards *obs.Counter
	trackerDeaths  *obs.Counter
	speculations   *obs.Counter
	preemptions    *obs.Counter
	jobsCompleted  *obs.Counter
	jobsFailed     *obs.Counter

	cfgMapSlots    *obs.Gauge
	cfgReduceSlots *obs.Gauge
	cfgSortBuffer  *obs.Gauge
	cfgSpeculative *obs.Gauge
	trackersDead   *obs.Gauge
	pendingTasks   *obs.Gauge
}

// SetObs attaches the observability plane: jobs and task attempts get
// spans, scheduler events become typed trace events, and the registry
// gains the mr_* metric family. A cluster without a plane records no
// events: the plane's tracer is the only trace.
func (c *Cluster) SetObs(pl *obs.Plane) {
	c.obs = pl
	if pl == nil {
		c.instr = nil
		return
	}
	c.instr = &instruments{
		mapSeconds:     pl.Histogram("mr_task_seconds", taskSecondsBuckets, "kind", "map"),
		reduceSeconds:  pl.Histogram("mr_task_seconds", taskSecondsBuckets, "kind", "reduce"),
		spillBytes:     pl.Counter("mr_spill_bytes_total"),
		shuffleBytes:   pl.Counter("mr_shuffle_bytes_total"),
		outputBytes:    pl.Counter("mr_output_bytes_total"),
		taskFailures:   pl.Counter("mr_task_failures_total"),
		zombieDiscards: pl.Counter("mr_zombie_discards_total"),
		trackerDeaths:  pl.Counter("mr_tracker_deaths_total"),
		speculations:   pl.Counter("mr_speculative_attempts_total"),
		preemptions:    pl.Counter("mr_preemptions_total"),
		jobsCompleted:  pl.Counter("mr_jobs_completed_total"),
		jobsFailed:     pl.Counter("mr_jobs_failed_total"),

		cfgMapSlots:    pl.Gauge("mr_config_map_slots"),
		cfgReduceSlots: pl.Gauge("mr_config_reduce_slots"),
		cfgSortBuffer:  pl.Gauge("mr_config_sort_buffer_bytes"),
		cfgSpeculative: pl.Gauge("mr_config_speculative"),
		trackersDead:   pl.Gauge("mr_trackers_dead"),
		pendingTasks:   pl.Gauge("mr_pending_tasks"),
	}
	pl.Registry().OnCollect(c.collect)
}

// collect refreshes the configuration and liveness gauges the tuner's
// snapshot path consumes. It runs only at snapshot time, so derived state
// (dead-tracker count, queue depth) is folded here instead of being
// maintained per event.
func (c *Cluster) collect() {
	in := c.instr
	in.cfgMapSlots.Set(float64(c.cfg.MapSlots))
	in.cfgReduceSlots.Set(float64(c.cfg.ReduceSlots))
	in.cfgSortBuffer.Set(c.cfg.SortBufferBytes)
	spec := 0.0
	if c.cfg.Speculative {
		spec = 1
	}
	in.cfgSpeculative.Set(spec)
	dead := 0
	for _, tr := range c.trackers {
		if !tr.Alive() {
			dead++
		}
	}
	in.trackersDead.Set(float64(dead))
	in.pendingTasks.Set(float64(len(c.pending)))
}

// startSpans opens the job's root span and its map phase at submission,
// and resolves the job's per-name retry-overhead gauge so completion
// paths never rebuild a registry key.
func (j *job) startSpans() {
	pl := j.cluster.obs
	if pl == nil {
		return
	}
	j.extraAttempts = pl.Gauge("mr_job_extra_attempts", "job", j.cfg.Name)
	j.span = pl.Start(obs.KindJob, j.cfg.Name, nil).
		SetAttr("maps", strconv.Itoa(len(j.maps))).
		SetAttr("reduces", strconv.Itoa(len(j.reduces)))
	if j.tenant != "" {
		j.span.SetAttr("tenant", j.tenant)
	}
	j.phaseMap = pl.Start(obs.KindPhase, j.cfg.Name+"/map", j.span)
}

// taskSpanParent returns the phase span a new attempt of t belongs
// under, opening the shuffle and reduce phases at the first reduce
// launch — a deterministic point in the schedule.
func (j *job) taskSpanParent(t *task) *obs.Span {
	pl := j.cluster.obs
	if pl == nil {
		return nil
	}
	if t.kind == MapTask {
		return j.phaseMap
	}
	if j.phaseReduce == nil {
		j.phaseShuffle = pl.Start(obs.KindPhase, j.cfg.Name+"/shuffle", j.span)
		j.phaseReduce = pl.Start(obs.KindPhase, j.cfg.Name+"/reduce", j.span)
	}
	return j.phaseReduce
}

// noteShuffleDone closes the shuffle phase once every reduce task has
// fetched its full partition set at least once.
func (j *job) noteShuffleDone(t *task) {
	if t.shuffleCounted || j.phaseShuffle == nil {
		return
	}
	t.shuffleCounted = true
	j.shufflesDone++
	if j.shufflesDone == len(j.reduces) {
		j.phaseShuffle.Finish()
	}
}

// finishSpans closes any still-open job and phase spans when the job
// completes or fails.
func (j *job) finishSpans() {
	if j.span == nil {
		return
	}
	j.phaseMap.Finish()
	j.phaseShuffle.Finish()
	j.phaseReduce.Finish()
	j.span.SetAttr("attempts", strconv.Itoa(j.stats.Attempts))
	if j.err != nil {
		j.span.SetAttr("error", j.err.Error())
	} else {
		j.span.SetFloat("runtime", float64(j.stats.Runtime))
	}
	j.span.Finish()
}
