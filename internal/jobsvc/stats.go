package jobsvc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vhadoop/internal/sim"
)

// TenantStats is one tenant's accumulated accounting.
type TenantStats struct {
	Name   string
	Weight float64

	Submitted       int
	Rejected        int
	Completed       int
	Failed          int
	Preempted       int // running attempts lost to preemption
	DeadlinesMissed int

	// WaitTotal sums queue waits (admission to dispatch).
	WaitTotal sim.Time
	// SlotSeconds integrates the tenant's cluster slot occupancy over the
	// scheduler ticks; ContendedSlotSeconds counts only ticks on which
	// every tenant had work in the system — the window fairness is judged
	// over.
	SlotSeconds          float64
	ContendedSlotSeconds float64
	// ReservedSlotSeconds integrates the tenant's admitted slot
	// reservations — the quantity dominant-share scheduling actually
	// allocates. Cluster occupancy is a lagging, noisy echo of it (a
	// reduce slot waiting on shuffle data counts as occupied), so the
	// weighted fairness index is computed over the contended reserved
	// integral, not occupancy.
	ReservedSlotSeconds          float64
	ContendedReservedSlotSeconds float64
	// LastFinish is the virtual completion time of the tenant's last job.
	LastFinish sim.Time

	waits []sim.Time
}

// P99Wait returns the tenant's 99th-percentile queue wait.
func (ts TenantStats) P99Wait() sim.Time { return percentile(ts.waits, 0.99) }

// Stats returns a copy of the tenant's accounting.
func (t *Tenant) Stats() TenantStats {
	ts := t.stats
	ts.waits = append([]sim.Time(nil), t.stats.waits...)
	return ts
}

// percentile returns the pth percentile (0 < p <= 1) of xs, 0 when empty.
func percentile(xs []sim.Time, p float64) sim.Time {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]sim.Time(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted))*p+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Stats returns every tenant's accounting in registration order.
func (s *Service) Stats() []TenantStats {
	out := make([]TenantStats, len(s.tenants))
	for i, t := range s.tenants {
		out[i] = t.Stats()
	}
	return out
}

// Backfills returns how many jobs jumped a blocked fair-share head.
func (s *Service) Backfills() int { return s.backfills }

// Preemptions returns how many running slots were reclaimed.
func (s *Service) Preemptions() int { return s.preemptions }

// P99Wait returns the 99th-percentile queue wait across all tenants.
func (s *Service) P99Wait() sim.Time {
	var all []sim.Time
	for _, t := range s.tenants {
		all = append(all, t.stats.waits...)
	}
	return percentile(all, 0.99)
}

// Jain returns the Jain fairness index over weight-normalized tenant
// reservations: (Σx)² / (n·Σx²) with xᵢ = reserved slot-seconds of tenant
// i divided by its weight. 1.0 is perfectly weighted-fair; 1/n is
// maximally unfair. The integral from the contended window is preferred —
// outside it a lone tenant using the whole cluster is not unfairness —
// falling back to the total when the tenants' backlogs never overlapped.
func (s *Service) Jain() float64 {
	xs := make([]float64, 0, len(s.tenants))
	contended := false
	for _, t := range s.tenants {
		if t.stats.ContendedReservedSlotSeconds > 0 {
			contended = true
			break
		}
	}
	for _, t := range s.tenants {
		use := t.stats.ContendedReservedSlotSeconds
		if !contended {
			use = t.stats.ReservedSlotSeconds
		}
		xs = append(xs, use/t.weight)
	}
	return jain(xs)
}

// jain is the raw Jain index over xs; 0 when the total usage is zero.
func jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// g formats a float the way the repo's canonical artifacts do: shortest
// round-trip representation, so reports byte-compare across runs.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Report renders the service's full accounting as a canonical string: one
// header line, one line per tenant in registration order, one footer with
// the service-wide fairness numbers. Byte-identical across same-seed runs;
// the determinism suite pins it.
func (s *Service) Report() string {
	var b strings.Builder
	var sub, done, fail, rej, pre, miss int
	for _, t := range s.tenants {
		sub += t.stats.Submitted
		done += t.stats.Completed
		fail += t.stats.Failed
		rej += t.stats.Rejected
		pre += t.stats.Preempted
		miss += t.stats.DeadlinesMissed
	}
	fmt.Fprintf(&b, "jobsvc tenants=%d submitted=%d completed=%d failed=%d rejected=%d preempted=%d backfills=%d deadline_missed=%d\n",
		len(s.tenants), sub, done, fail, rej, pre, s.backfills, miss)
	for _, t := range s.tenants {
		ts := t.stats
		fmt.Fprintf(&b, "tenant %s w=%s sub=%d done=%d fail=%d rej=%d pre=%d miss=%d wait_total=%s p99_wait=%s slotsec=%s contended=%s ressec=%s cressec=%s last_finish=%s\n",
			ts.Name, g(ts.Weight), ts.Submitted, ts.Completed, ts.Failed, ts.Rejected,
			ts.Preempted, ts.DeadlinesMissed, g(float64(ts.WaitTotal)), g(float64(ts.P99Wait())),
			g(ts.SlotSeconds), g(ts.ContendedSlotSeconds),
			g(ts.ReservedSlotSeconds), g(ts.ContendedReservedSlotSeconds), g(float64(ts.LastFinish)))
	}
	fmt.Fprintf(&b, "jain=%s p99_wait=%s\n", g(s.Jain()), g(float64(s.P99Wait())))
	return b.String()
}
