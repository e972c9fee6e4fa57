package sim

import "fmt"

// FairShare is a processor-sharing resource: every job in service progresses
// simultaneously, each at a fair fraction of the total capacity, optionally
// capped at a per-job maximum rate. It models CPU pools under the Xen credit
// scheduler (capacity = #cores, per-job cap = 1 core), disks and any other
// rate-shared device. It is a MaxMin solver with a single resource.
type FairShare struct {
	solver    *MaxMin
	name      string
	perJobCap float64 // per-job max rate; 0 means uncapped
	uses      []int   // the solver's only resource, shared by every job
	free      *Job    // jobs Use and End have finished with, linked through next
}

// NewFairShare returns a processor-sharing resource with the given total
// capacity (work units per second) and per-job rate cap (0 = uncapped).
func NewFairShare(e *Engine, name string, capacity, perJobCap float64) *FairShare {
	if capacity <= 0 {
		panic("sim: fair-share capacity must be positive")
	}
	// Jobs with a work residue of 1e-9 are finished, and completions are at
	// least 1e-9 s apart.
	s := NewMaxMin(e, "fair-share "+name, 1e-9, 1e-9)
	return &FairShare{solver: s, name: name, perJobCap: perJobCap, uses: []int{s.AddResource(capacity)}}
}

// Name returns the resource name.
func (f *FairShare) Name() string { return f.name }

// Capacity returns the total service rate.
func (f *FairShare) Capacity() float64 { return f.solver.Capacity(0) }

// Load returns the number of jobs in service. Only tests read it:
// TestFairShareUtilizationAccounting and TestAbortDuringUseIsNotRecycled.
func (f *FairShare) Load() int { return f.solver.Len() }

// SetCapacity retunes the total service rate mid-simulation (fault
// injection: a stalled disk or throttled device). Progress is integrated at
// the old rates first, then every in-flight job is re-rated. Capacity must
// stay positive: a zero-rate resource would stall the event loop, so stalls
// are modelled as a severe-but-finite slowdown.
func (f *FairShare) SetCapacity(capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: fair-share %q: capacity must be positive", f.name))
	}
	f.solver.SetCapacity(0, capacity)
}

// Utilization returns the instantaneous fraction of capacity in use.
func (f *FairShare) Utilization() float64 { return f.solver.Utilization(0) }

// MeanUtilization returns the time-averaged utilisation since creation.
// Only tests read it: TestFairShareMeanUtilizationAfterRetune checks a retune.
func (f *FairShare) MeanUtilization() float64 { return f.solver.MeanUtilization(0) }

// Served returns the total work completed so far. Only tests read it:
// TestFairShareConservationProperty checks that work is conserved.
func (f *FairShare) Served() float64 { return f.solver.Carried(0) }

// Use blocks p until `work` units have been serviced at fair-share rates.
// It allocates nothing in steady state: its job record comes from the
// free list and goes back on it once the wait returns. A process aborted or
// killed while it waits unwinds past that point, so its job stays with the
// solver, is served to completion, and is never reused.
func (f *FairShare) Use(p *Proc, work float64) {
	if work <= 0 {
		return
	}
	f.End(p, f.Begin(work))
}

// Job is one submission: the activity and the latch it completes, in one
// allocation.
type Job struct {
	Activity
	done Done
	next *Job // free-list link, set only while the job is on the list
}

// Begin enqueues work asynchronously, for a caller that overlaps it with
// another wait and then calls End. It may be called from engine context or
// a process. The job comes from the free list that Use draws on, so the
// pair allocates nothing in steady state.
func (f *FairShare) Begin(work float64) *Job {
	j := f.free
	if j != nil {
		f.free, j.next = j.next, nil
	} else {
		j = new(Job)
	}
	if work <= 0 {
		j.done.fire()
		return j
	}
	f.solver.Start(&j.Activity, work, f.perJobCap, f.uses, &j.done, 0)
	return j
}

// End blocks p until j, which Begin returned on f, has been served, then
// puts j back on the free list. As in Use, a process aborted or killed
// while it waits unwinds past that point and j is never reused.
func (f *FairShare) End(p *Proc, j *Job) {
	j.done.Wait(p)
	f.Recycle(j)
}

// Done returns the latch that fires once j has been served, for a caller
// that is not a process: it waits with FiredOr, then calls Recycle.
func (j *Job) Done() *Done { return &j.done }

// Recycle puts j, which Begin returned on f and which has been served, back
// on the free list. Recycling a job still in service panics.
func (f *FairShare) Recycle(j *Job) {
	if !j.done.fired {
		panic(fmt.Sprintf("sim: fair-share %q: recycling a job still in service", f.name))
	}
	j.done = Done{}
	j.next, f.free = f.free, j
}
