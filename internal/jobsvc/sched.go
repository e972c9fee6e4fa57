package jobsvc

import (
	"fmt"
	"strconv"

	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// Start arms the scheduler and starts its tick chain on the shared domain
// (it reads and writes cross-domain cluster state every tick). Until
// Start is called, submissions only queue — admission control applies
// but nothing dispatches, so callers can stage a backlog
// deterministically. The scheduler is demand-driven: it stops scheduling
// ticks when the service is fully idle so a drained simulation can
// terminate, and any later Submit revives it. Idempotent.
func (s *Service) Start() {
	s.started = true
	s.ensureSched()
}

// ensureSched starts the scheduler's tick chain if the service has been
// started and the chain is not already running.
func (s *Service) ensureSched() {
	if !s.started || s.schedRunning {
		return
	}
	s.schedRunning = true
	s.pl.Engine.At(s.pl.Engine.Now(), s.schedFn)
}

// schedStep runs one scheduler tick and schedules the next, until the
// service is fully idle. One tick integrates usage, dispatches under fair
// share (with backfill), and preempts for starving head jobs. No tick
// blocks, so the scheduler is a timer chain, not a process.
func (s *Service) schedStep() {
	now := s.pl.Engine.Now()
	if !s.schedStartSet {
		s.schedStart, s.schedStartSet = now, true
	}
	if s.queued == 0 && s.running == 0 {
		s.schedRunning = false
		return
	}
	s.tickOnce(now)
	s.pl.Engine.After(s.cfg.Tick, s.schedFn)
}

// tickOnce is one scheduler decision round at virtual time now.
func (s *Service) tickOnce(now sim.Time) {
	// No proc yields inside a tick, so what the view snapshots (liveness,
	// free map slots) holds until the tick ends: one view serves every pick.
	s.tick++
	s.pl.MR.RefreshLocalityView(&s.view)
	s.integrate()
	blocked, dm, dr, dispatched := s.dispatchPass(now)
	if s.cfg.Preemption && blocked != nil {
		s.preemptPass(now, blocked, dm, dr)
	}
	if dispatched == 0 && blocked == nil && s.running == 0 && s.queued > 0 {
		// Nothing runs, nothing was startable, and no head is merely
		// waiting for slots: the backlog holds jobs no empty cluster could
		// ever place (demand beyond quota). Fail them or tick forever.
		s.failUnschedulable(now)
	}
	s.instr.queueDepth.Set(float64(s.queued))
	s.instr.runningJobs.Set(float64(s.running))
}

// failUnschedulable fails every queued job whose clamped demand exceeds
// its tenant's quota — jobs that could not dispatch even on an idle
// cluster.
func (s *Service) failUnschedulable(now sim.Time) {
	totM, totR := s.pl.MR.SlotTotals()
	for _, t := range s.tenants {
		kept := t.queue[:0]
		for _, j := range t.queue {
			dm, dr := j.demand(totM, totR)
			if (t.quotaMaps > 0 && dm > t.quotaMaps) || (t.quotaReduces > 0 && dr > t.quotaReduces) {
				s.queued--
				j.finished = now
				j.err = fmt.Errorf("%w: %s demands (%d,%d), quota (%d,%d)",
					ErrUnschedulable, j.spec.Workload(), dm, dr, t.quotaMaps, t.quotaReduces)
				t.stats.Failed++
				s.instr.failed.Inc()
				s.pl.Obs.Eventf(kindJobsvc, "fail %s job %d: unschedulable under quota", t.name, j.id)
				j.done.Fire()
				continue
			}
			kept = append(kept, j)
		}
		t.queue = kept
	}
}

// integrate accumulates per-tenant slot-seconds: occupancy from the
// cluster's live ledger, and reservations from the service's own
// admission ledger (what fair share allocates — the Jain index runs on
// this one). Seconds while every tenant has work in the system count
// separately as contended usage, the window where fair share is actually
// being arbitrated.
func (s *Service) integrate() {
	// Contended means every tenant still has queued demand: that is when
	// dispatch actually arbitrates between tenants. A tenant whose last
	// job is merely running no longer competes for slots, and the window
	// must exclude that tail — the freed slots drain to whoever is left,
	// which is scheduling's job, not unfairness.
	contended := len(s.tenants) > 1
	for _, t := range s.tenants {
		if len(t.queue) == 0 {
			contended = false
			break
		}
	}
	for _, t := range s.tenants {
		m, r := t.ledger.Running()
		busy := float64(m+r) * float64(s.cfg.Tick)
		res := float64(t.resMaps+t.resReduces) * float64(s.cfg.Tick)
		t.cumMapSec += float64(t.resMaps) * float64(s.cfg.Tick)
		t.cumReduceSec += float64(t.resReduces) * float64(s.cfg.Tick)
		t.stats.SlotSeconds += busy
		t.stats.ReservedSlotSeconds += res
		if contended {
			t.stats.ContendedSlotSeconds += busy
			t.stats.ContendedReservedSlotSeconds += res
		}
		t.slots.Set(float64(m + r))
	}
}

// dominantShare is the tenant's DRF score: the larger of its map- and
// reduce-slot service fractions, normalized by its weight. Service is the
// cumulative reservation integral plus the current reservations projected
// over one tick — the cumulative term makes weights effective even when
// concurrency is below the tenant count (deficit/WFQ-style), and the
// projection term rotates dispatch within a single tick. Lowest dominant
// share is served first.
func (t *Tenant) dominantShare(totM, totR int, tick sim.Time) float64 {
	var dm, dr float64
	if totM > 0 {
		dm = (t.cumMapSec + float64(t.resMaps)*float64(tick)) / float64(totM)
	}
	if totR > 0 {
		dr = (t.cumReduceSec + float64(t.resReduces)*float64(tick)) / float64(totR)
	}
	return max(dm, dr) / t.weight
}

// demand bounds the job's slot demand to the cluster's totals, so jobs
// wider than the cluster still become dispatchable when it is idle.
func (j *Job) demand(totM, totR int) (int, int) {
	return min(j.wantMaps, totM), min(j.wantReduces, totR)
}

// locality is j's score against this tick's view, computed once a tick.
func (s *Service) locality(j *Job) float64 {
	if j.scoreTick != s.tick {
		j.score, j.scoreTick = s.view.Score(j.inputs), s.tick
	}
	return j.score
}

// underQuota reports whether dispatching demand (dm, dr) keeps the tenant
// within its slot quotas.
func (t *Tenant) underQuota(dm, dr int) bool {
	if t.quotaMaps > 0 && t.resMaps+dm > t.quotaMaps {
		return false
	}
	if t.quotaReduces > 0 && t.resReduces+dr > t.quotaReduces {
		return false
	}
	return true
}

// fits reports whether demand (dm, dr) fits the unreserved slots.
func (s *Service) fits(dm, dr, totM, totR int) bool {
	return s.resMaps+dm <= totM && s.resReduces+dr <= totR
}

// pickJob selects the tenant's next job: deadline jobs first by earliest
// deadline (earliest slack, absent a runtime estimate), then priority
// descending, then — among jobs tying on both — the best
// locality score over the job's declared inputs, then submission order.
// Jobs whose demand would break the tenant's quota are passed over.
func (s *Service) pickJob(t *Tenant, totM, totR int) *Job {
	var best *Job
	ties := 0
	better := func(a, b *Job) int {
		// Returns <0 if a precedes b, 0 if tied before locality.
		ad, bd := a.deadline, b.deadline
		switch {
		case ad > 0 && bd == 0:
			return -1
		case ad == 0 && bd > 0:
			return 1
		case ad != bd:
			if ad < bd {
				return -1
			}
			return 1
		}
		if a.priority != b.priority {
			if a.priority > b.priority {
				return -1
			}
			return 1
		}
		return 0
	}
	for _, j := range t.queue {
		if !t.underQuota(j.demand(totM, totR)) {
			continue
		}
		if best == nil {
			best, ties = j, 1
			continue
		}
		switch better(j, best) {
		case -1:
			best, ties = j, 1
		case 0:
			ties++
			// Locality tiebreak, bounded to the first few ties so one
			// huge queue cannot turn a tick into a full HDFS scan.
			if ties <= 8 && s.locality(j) > s.locality(best) {
				best = j
			}
		}
	}
	return best
}

// nextTenant returns the lowest-dominant-share tenant (the first
// registered among equals) that has a job to dispatch this tick, with its
// pick computed, or nil. A tenant's dominant share does not depend on its
// pick, so only the candidate being served needs one: the others' queues
// go unscanned. A nil pick (every queued job over quota) is cached for the
// tick and excludes the tenant from the next choice, so the winner is the
// minimum over exactly the tenants with a non-nil pick.
func (s *Service) nextTenant(totM, totR int) *Tenant {
	for {
		var t *Tenant
		bestDS := 0.0
		for _, cand := range s.tenants {
			if len(cand.queue) == 0 || (cand.pickTick == s.tick && cand.pick == nil) {
				continue
			}
			ds := cand.dominantShare(totM, totR, s.cfg.Tick)
			if t == nil || ds < bestDS {
				t, bestDS = cand, ds
			}
		}
		if t == nil {
			return nil
		}
		if t.pickTick != s.tick {
			t.pick, t.pickTick = s.pickJob(t, totM, totR), s.tick
		}
		if t.pick != nil {
			return t
		}
	}
}

// dispatchPass serves tenants in dominant-share order while slots and the
// running-job budget last. When the fair-share head job does not fit it
// either backfills a smaller job past it (Backfill) or reports the blocked
// head to the preemption pass.
func (s *Service) dispatchPass(now sim.Time) (blocked *Job, bdm, bdr, dispatched int) {
	totM, totR := s.pl.MR.SlotTotals()
	for s.running < maxRunning && s.queued > 0 {
		t := s.nextTenant(totM, totR)
		if t == nil {
			return nil, 0, 0, dispatched
		}
		j := t.pick
		dm, dr := j.demand(totM, totR)
		if s.fits(dm, dr, totM, totR) {
			s.dispatch(j, dm, dr, now, false)
			dispatched++
			continue
		}
		blocked, bdm, bdr = j, dm, dr
		if !s.cfg.Backfill {
			return blocked, bdm, bdr, dispatched
		}
		// Backfill: the first queued job, tenants in registration order,
		// that fits the leftover slots jumps the blocked head.
		bj, bjdm, bjdr := s.findBackfill(j, totM, totR)
		if bj == nil {
			return blocked, bdm, bdr, dispatched
		}
		s.backfills++
		s.instr.backfilled.Inc()
		s.pl.Obs.Eventf(kindJobsvc, "backfill %s job %d past %s job %d", bj.tenant.name, bj.id, j.tenant.name, j.id)
		s.dispatch(bj, bjdm, bjdr, now, true)
		dispatched++
	}
	return blocked, bdm, bdr, dispatched
}

// findBackfill scans all queues in deterministic order for the first job,
// other than the blocked head, that fits the unreserved slots and its
// tenant's quota.
func (s *Service) findBackfill(head *Job, totM, totR int) (*Job, int, int) {
	for _, t := range s.tenants {
		for _, j := range t.queue {
			if j == head {
				continue
			}
			dm, dr := j.demand(totM, totR)
			if t.underQuota(dm, dr) && s.fits(dm, dr, totM, totR) {
				return j, dm, dr
			}
		}
	}
	return nil, 0, 0
}

// preemptPass reclaims slots for a fair-share head job that has been
// starving past StarveWait: the tenant with the highest dominant share
// loses up to MaxPreemptPerTick running attempts of the blocking resource
// kinds (requeued, attempt budget refunded), and the starving job
// dispatches over-reserved — its tasks drain into the slots the aborted
// attempts free. Starvation is measured from the later of submission and
// the scheduler's own start, so a backlog staged before Start() does not
// count its staging time as starving.
func (s *Service) preemptPass(now sim.Time, blocked *Job, dm, dr int) {
	since := blocked.submitted
	if since < s.schedStart {
		since = s.schedStart
	}
	if now-since < s.cfg.StarveWait {
		return
	}
	totM, totR := s.pl.MR.SlotTotals()
	// Preemption only ever aborts map attempts. A map restarts cheaply,
	// but an aborted reduce forfeits its shuffle and re-enters the queue
	// for the very slot class under contention — the victim stalls holding
	// its reservation, its apparent service inflates, and it keeps being
	// picked as the "over-served" victim: a spiral, not a rebalance. So a
	// head blocked on reduce slots waits for natural drain instead.
	if dm == 0 || s.resMaps+dm <= totM {
		return
	}
	var victim *Tenant
	worst := 0.0
	for _, t := range s.tenants {
		if t == blocked.tenant || t.resMaps == 0 {
			continue
		}
		if t.stats.Preempted > 0 && now-t.preemptedAt < s.cfg.StarveWait {
			// Cooldown: a recently-hit victim is still re-running the
			// aborted attempts; hitting it again compounds the stall.
			continue
		}
		if ds := t.dominantShare(totM, totR, s.cfg.Tick); victim == nil || ds > worst {
			victim, worst = t, ds
		}
	}
	if victim == nil || worst <= blocked.tenant.dominantShare(totM, totR, s.cfg.Tick) {
		return
	}
	n := dm
	if n > s.cfg.MaxPreemptPerTick {
		n = s.cfg.MaxPreemptPerTick
	}
	k := s.pl.MR.PreemptTenant(victim.name, mapreduce.MapTask, n)
	if k == 0 {
		return
	}
	victim.stats.Preempted += k
	victim.preemptedAt = now
	s.preemptions += k
	s.instr.preempted.Add(float64(k))
	s.pl.Obs.Eventf(kindJobsvc, "preempt %d slots of %s for %s job %d (waited %.3g)",
		k, victim.name, blocked.tenant.name, blocked.id, float64(now-since))
	blocked.boost = 1
	s.dispatch(blocked, dm, dr, now, false)
}

// dispatch removes j from its tenant's queue, reserves its demand and
// spawns the runner proc that executes the workload under the tenant's
// submission options.
func (s *Service) dispatch(j *Job, dm, dr int, now sim.Time, backfill bool) {
	t := j.tenant
	t.pickTick = 0 // queue and reservations change below
	for i, q := range t.queue {
		if q == j {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			break
		}
	}
	s.queued--
	j.started = now
	j.demMaps, j.demReduces = dm, dr
	t.resMaps += dm
	t.resReduces += dr
	s.resMaps += dm
	s.resReduces += dr
	s.running++
	wait := now - j.submitted
	t.stats.WaitTotal += wait
	t.stats.waits = append(t.stats.waits, wait)
	s.instr.waitHist.Observe(float64(wait))
	j.span = s.pl.Obs.Start(kindJobsvc, "jobsvc:"+j.spec.Workload(), nil)
	j.span.SetAttr("tenant", t.name)
	j.span.SetAttr("job", strconv.Itoa(j.id))
	if backfill {
		j.span.SetAttr("backfill", "true")
	}
	s.pl.Obs.Eventf(kindJobsvc, "dispatch %s job %d (%s) after %.3g", t.name, j.id, j.spec.Workload(), float64(wait))
	s.pl.Engine.Spawn(fmt.Sprintf("jobsvc-run:%s:%d", t.name, j.id), func(p *sim.Proc) {
		opts := []mapreduce.SubmitOption{mapreduce.WithTenant(t.name)}
		if pr := j.priority + j.boost; pr != 0 {
			opts = append(opts, mapreduce.WithPriority(pr))
		}
		if !j.collect {
			opts = append(opts, mapreduce.WithCollectOutput(false))
		}
		res, err := j.spec.Run(p, s.pl, opts...)
		s.complete(p, j, res, err)
	})
}

// complete records a runner's outcome and releases its reservation.
func (s *Service) complete(p *sim.Proc, j *Job, res workloads.Result, err error) {
	t := j.tenant
	j.finished = p.Now()
	j.result = res
	j.err = err
	if err != nil {
		t.stats.Failed++
		s.instr.failed.Inc()
		j.span.SetAttr("outcome", "failed")
		s.pl.Obs.Eventf(kindJobsvc, "job %d (%s) failed: %v", j.id, t.name, err)
	} else {
		t.stats.Completed++
		s.instr.completed.Inc()
		t.completed.Inc()
		j.span.SetAttr("outcome", "done")
	}
	if j.deadline > 0 && j.finished > j.deadline {
		t.stats.DeadlinesMissed++
		s.instr.deadlineMiss.Inc()
		j.span.SetAttr("deadline", "missed")
	}
	lat := j.finished - j.started
	s.instr.runHist.Observe(float64(lat))
	if j.finished > t.stats.LastFinish {
		t.stats.LastFinish = j.finished
	}
	t.resMaps -= j.demMaps
	t.resReduces -= j.demReduces
	s.resMaps -= j.demMaps
	s.resReduces -= j.demReduces
	s.running--
	j.span.Finish()
	j.done.Fire()
}
