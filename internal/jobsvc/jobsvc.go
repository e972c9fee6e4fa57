// Package jobsvc is the multi-tenant job service: a long-running control
// plane that owns a mapreduce.Cluster, accepts workload submissions from
// many tenants, and schedules them under weighted fair share. It supplies
// what the paper's one-shot experiment drivers could not: admission control
// against queue and HDFS-capacity pressure, DRF-style dominant-share
// ordering over map and reduce slots, deadline- and locality-aware job
// selection, preemption of over-share tenants, and backfill of idle slots.
//
// The service is a pure simulation citizen: its scheduler is a timer chain
// ticking on the virtual clock, every decision consumes only deterministic
// inputs (registration order, submission sequence, cluster slot ledgers),
// and a whole 100-tenant backlog replays byte-identically under a fixed
// seed.
package jobsvc

import (
	"errors"
	"fmt"

	"vhadoop/internal/core"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/obs"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// Admission errors. Submit returns them wrapped with the tenant and
// workload so callers can log rejections without string-matching.
var (
	// ErrUnknownTenant rejects submissions for unregistered accounts.
	ErrUnknownTenant = errors.New("jobsvc: unknown tenant")
	// ErrQueueFull rejects when the service-wide backlog cap is reached.
	ErrQueueFull = errors.New("jobsvc: queue full")
	// ErrTenantQueueFull rejects when one tenant's backlog cap is reached.
	ErrTenantQueueFull = errors.New("jobsvc: tenant queue full")
	// ErrCapacity rejects when admitting the job would overcommit the
	// configured HDFS capacity.
	ErrCapacity = errors.New("jobsvc: insufficient HDFS capacity")
	// ErrUnschedulable fails admitted jobs whose slot demand exceeds their
	// tenant's quota even on an idle cluster — they could never dispatch.
	ErrUnschedulable = errors.New("jobsvc: unschedulable")
)

// Config tunes the service. The zero value is usable: Defaults fills every
// unset knob.
type Config struct {
	// Tick is the scheduler period on the virtual clock.
	Tick sim.Time
	// MaxQueued caps the service-wide backlog (queued, not yet running).
	MaxQueued int
	// MaxQueuedPerTenant caps one tenant's backlog.
	MaxQueuedPerTenant int
	// MaxRunning caps concurrently dispatched jobs across all tenants,
	// bounding the proc fan-out of huge backlogs.
	MaxRunning int
	// CapacityBytes is the admission budget for HDFS: a submission whose
	// footprint would push the sum of bytes already written plus admitted
	// footprints past it is rejected. 0 disables the check.
	CapacityBytes float64
	// StarveWait is how long the fair-share head job may sit queued before
	// the scheduler preempts slots from the most over-share tenant.
	StarveWait sim.Time
	// Preemption enables starvation-triggered preemption.
	Preemption bool
	// Backfill lets jobs that fit the leftover slots jump a blocked
	// fair-share head job.
	Backfill bool
	// MaxPreemptPerTick bounds slots reclaimed per scheduler tick.
	MaxPreemptPerTick int
}

// Defaults fills unset fields with the testbed defaults.
func (c Config) Defaults() Config {
	if c.Tick == 0 {
		c.Tick = 2
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 1 << 20
	}
	if c.MaxQueuedPerTenant == 0 {
		c.MaxQueuedPerTenant = c.MaxQueued
	}
	if c.MaxRunning == 0 {
		c.MaxRunning = 32
	}
	if c.StarveWait == 0 {
		c.StarveWait = 60
	}
	if c.MaxPreemptPerTick == 0 {
		c.MaxPreemptPerTick = 2
	}
	return c
}

// Tenant is one registered account: a weight for fair share and optional
// slot quotas. Tenants live in a slice in registration order — scheduling
// never iterates a map.
type Tenant struct {
	name   string
	weight float64
	// quotaMaps/quotaReduces cap the tenant's reserved slots (0: no cap).
	quotaMaps    int
	quotaReduces int

	queue []*Job // queued jobs, submission order
	// resMaps/resReduces are the slot demands of dispatched-not-finished
	// jobs — the service-side usage signal fair share runs on (the cluster
	// ledger lags dispatch by the heartbeat delay).
	resMaps    int
	resReduces int
	// cumMapSec/cumReduceSec integrate the reservations over scheduler
	// ticks: the tenant's accumulated service, per resource. Dominant
	// share runs on these — an instantaneous share degenerates to
	// unweighted round-robin whenever concurrency is below the tenant
	// count (a tenant holding nothing is always "most starved"), while
	// cumulative service lets weights bite at any capacity, WFQ-style.
	cumMapSec    float64
	cumReduceSec float64
	// preemptedAt is the last time this tenant lost attempts to
	// preemption. A preempted attempt restarts and holds its reservation
	// longer, inflating the tenant's apparent service — without a cooldown
	// the same tenant stays the highest-share "victim" and is preempted
	// into a stall spiral.
	preemptedAt sim.Time

	// pick caches pickJob's answer for scheduler tick pickTick. It depends
	// only on this tenant's queue and reservations (and per-tick constants),
	// so dispatch — the one thing that changes either mid-tick — clears it.
	pick     *Job
	pickTick int

	// ledger is the cluster's running-slot ledger for this tenant,
	// resolved at Register.
	ledger *mapreduce.TenantLedger

	// Interned per-tenant series of the jobsvc_tenant_* vecs.
	slots     *obs.Gauge
	completed *obs.Counter

	stats TenantStats
}

// TenantOption tunes one tenant registration.
type TenantOption func(*Tenant)

// WithQuota caps the tenant's concurrently reserved map and reduce slots.
// No production tenant has a quota; TestQuotaCapsConcurrency and
// TestLocalityBreaksTies use one to hold the service to one job at a time.
func WithQuota(maps, reduces int) TenantOption {
	return func(t *Tenant) { t.quotaMaps, t.quotaReduces = maps, reduces }
}

// Job is one admitted submission.
type Job struct {
	id       int
	tenant   *Tenant
	spec     workloads.Spec
	priority int
	deadline sim.Time
	collect  bool

	// boost is added to the job's cluster-level priority when the
	// scheduler dispatches it via preemption: the reclaimed slots must go
	// to this job's tasks, not back to the victim's requeued ones.
	boost int

	submitted sim.Time
	started   sim.Time
	finished  sim.Time
	result    workloads.Result
	err       error
	done      *sim.Done
	span      *obs.Span

	// inputs and wantMaps/wantReduces are spec.Inputs() and spec.Demand(),
	// captured at Submit: both are pure, and the scheduler consults them
	// for every queued job on every tick.
	inputs      []string
	wantMaps    int
	wantReduces int
	// score is the job's locality score as of scheduler tick scoreTick.
	score     float64
	scoreTick int

	demMaps    int // demand clamped to cluster totals at dispatch
	demReduces int
}

// Ticket is the caller's handle on an admitted job.
type Ticket struct{ j *Job }

// Wait blocks until the job finishes, then returns its result and error.
// Like mapreduce.Handle.Wait it is idempotent: every call after completion
// returns the same stored result and error. The backlog drivers Drain and
// read Stats instead. jobsvc's tests call Wait to check one job's result
// and error: TestAdmissionControl, TestBackfillJumpsBlockedHead,
// TestPreemptionUnblocksStarvingTenant and TestDeadlineOrdering.
func (tk *Ticket) Wait(p *sim.Proc) (workloads.Result, error) {
	tk.j.done.Wait(p)
	return tk.j.result, tk.j.err
}

// SubmitOption tunes one submission.
type SubmitOption func(*Job)

// WithPriority raises (or, negative, lowers) the job's priority within its
// tenant's queue and inside the MapReduce cluster's task queue.
func WithPriority(pr int) SubmitOption {
	return func(j *Job) { j.priority = pr }
}

// WithDeadline sets the virtual-time deadline the scheduler orders by
// (earliest slack first) and the stats report misses against.
func WithDeadline(d sim.Time) SubmitOption {
	return func(j *Job) { j.deadline = d }
}

// WithoutOutput drops the job's collected output records, for backlogs
// where only the stats matter.
func WithoutOutput() SubmitOption {
	return func(j *Job) { j.collect = false }
}

// Service is the job service. Construct with New, register tenants, Start
// the scheduler, Submit from any proc, then Drain.
type Service struct {
	pl    *core.Platform
	cfg   Config
	instr *instruments

	tenants []*Tenant
	// byName resolves tenant names; lookup only, never iterated.
	byName map[string]*Tenant

	queued         int
	running        int
	resMaps        int
	resReduces     int
	nextID         int
	committedBytes float64

	// tick counts scheduler rounds (first round is 1, so zero-valued
	// stamps never match); view is the round's locality snapshot,
	// refreshed in place every round.
	tick int
	view mapreduce.LocalityView

	backfills   int
	preemptions int
	// schedStart is the virtual time the scheduler first ticked; jobs
	// staged before Start() measure starvation from here, not from their
	// (arbitrarily earlier) submission.
	schedStart    sim.Time
	schedStartSet bool
	started       bool
	schedRunning  bool
	schedFn       func() // schedStep, bound once so a tick allocates nothing
}

// New builds a service over the platform's MapReduce cluster.
func New(pl *core.Platform, cfg Config) *Service {
	s := &Service{
		pl:     pl,
		cfg:    cfg.Defaults(),
		byName: make(map[string]*Tenant),
	}
	s.instr = newInstruments(pl.Obs)
	s.schedFn = s.schedStep
	return s
}

// Register adds a tenant account with the given fair-share weight.
// Registration order is part of the deterministic schedule; register all
// tenants before Start.
func (s *Service) Register(name string, weight float64, opts ...TenantOption) error {
	if weight <= 0 {
		return fmt.Errorf("jobsvc: tenant %q weight %v must be positive", name, weight)
	}
	if _, dup := s.byName[name]; dup {
		return fmt.Errorf("jobsvc: tenant %q already registered", name)
	}
	t := &Tenant{
		name: name, weight: weight,
		ledger:    s.pl.MR.TenantLedger(name),
		slots:     s.pl.Obs.Gauge("jobsvc_tenant_slots", "tenant", name),
		completed: s.pl.Obs.Counter("jobsvc_tenant_completed_total", "tenant", name),
	}
	for _, o := range opts {
		o(t)
	}
	t.stats.Name = name
	t.stats.Weight = weight
	s.tenants = append(s.tenants, t)
	s.byName[name] = t
	return nil
}

// Submit admits spec for the tenant, staging its input on the calling proc
// (serially per submission, so concurrent jobs never race over shared
// staging) and enqueuing it for the scheduler. Admission rejects — queue
// caps, capacity — return an error wrapping one of the Err sentinels.
func (s *Service) Submit(p *sim.Proc, tenant string, spec workloads.Spec, opts ...SubmitOption) (*Ticket, error) {
	t, ok := s.byName[tenant]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	if s.queued >= s.cfg.MaxQueued {
		t.stats.Rejected++
		s.instr.rejected.Inc()
		s.pl.Obs.Eventf(kindJobsvc, "reject %s/%s: queue full (%d)", tenant, spec.Workload(), s.queued)
		return nil, fmt.Errorf("%w: %d queued", ErrQueueFull, s.queued)
	}
	if len(t.queue) >= s.cfg.MaxQueuedPerTenant {
		t.stats.Rejected++
		s.instr.rejected.Inc()
		s.pl.Obs.Eventf(kindJobsvc, "reject %s/%s: tenant queue full (%d)", tenant, spec.Workload(), len(t.queue))
		return nil, fmt.Errorf("%w: %s has %d queued", ErrTenantQueueFull, tenant, len(t.queue))
	}
	if s.cfg.CapacityBytes > 0 {
		used := s.pl.DFS.BytesWritten() + s.committedBytes
		if used+spec.Bytes() > s.cfg.CapacityBytes {
			t.stats.Rejected++
			s.instr.rejected.Inc()
			s.pl.Obs.Eventf(kindJobsvc, "reject %s/%s: capacity %.3g+%.3g > %.3g",
				tenant, spec.Workload(), used, spec.Bytes(), s.cfg.CapacityBytes)
			return nil, fmt.Errorf("%w: %.3g of %.3g bytes committed",
				ErrCapacity, used, s.cfg.CapacityBytes)
		}
		s.committedBytes += spec.Bytes()
	}
	if err := spec.Stage(p, s.pl); err != nil {
		if s.cfg.CapacityBytes > 0 {
			s.committedBytes -= spec.Bytes() // never admitted
		}
		return nil, fmt.Errorf("jobsvc: staging %s/%s: %w", tenant, spec.Workload(), err)
	}
	s.nextID++
	j := &Job{
		id:        s.nextID,
		tenant:    t,
		spec:      spec,
		inputs:    spec.Inputs(),
		collect:   true,
		submitted: s.pl.Engine.Now(),
		done:      sim.NewDone(),
	}
	j.wantMaps, j.wantReduces = spec.Demand()
	for _, o := range opts {
		o(j)
	}
	t.queue = append(t.queue, j)
	s.queued++
	t.stats.Submitted++
	s.instr.submitted.Inc()
	s.instr.queueDepth.Set(float64(s.queued))
	s.pl.Obs.Eventf(kindJobsvc, "admit %s/%s as job %d", tenant, spec.Workload(), j.id)
	s.ensureSched()
	return &Ticket{j: j}, nil
}

// Drain blocks until every admitted job has finished.
func (s *Service) Drain(p *sim.Proc) {
	for s.queued > 0 || s.running > 0 {
		p.Sleep(s.cfg.Tick)
	}
}
