package jobsvc

import "vhadoop/internal/obs"

// kindJobsvc tags the service's spans and events in the trace export.
const kindJobsvc = obs.SpanKind("jobsvc")

// instruments is the service's observability surface: service-wide
// counters for every admission and scheduling decision, queue gauges, wait
// and runtime histograms. The per-tenant occupancy gauge and completion
// counter for fairness dashboards are resolved by Register.
type instruments struct {
	submitted    *obs.Counter
	rejected     *obs.Counter
	completed    *obs.Counter
	failed       *obs.Counter
	preempted    *obs.Counter
	backfilled   *obs.Counter
	deadlineMiss *obs.Counter

	queueDepth  *obs.Gauge
	runningJobs *obs.Gauge

	waitHist *obs.Histogram
	runHist  *obs.Histogram
}

// waitBuckets spans sub-tick dispatches through hour-long starvation.
var waitBuckets = []float64{1, 2, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}

func newInstruments(pl *obs.Plane) *instruments {
	return &instruments{
		submitted:    pl.Counter("jobsvc_submitted_total"),
		rejected:     pl.Counter("jobsvc_rejected_total"),
		completed:    pl.Counter("jobsvc_completed_total"),
		failed:       pl.Counter("jobsvc_failed_total"),
		preempted:    pl.Counter("jobsvc_preempted_slots_total"),
		backfilled:   pl.Counter("jobsvc_backfilled_total"),
		deadlineMiss: pl.Counter("jobsvc_deadline_missed_total"),
		queueDepth:   pl.Gauge("jobsvc_queue_depth"),
		runningJobs:  pl.Gauge("jobsvc_running_jobs"),
		waitHist:     pl.Histogram("jobsvc_wait_seconds", waitBuckets),
		runHist:      pl.Histogram("jobsvc_run_seconds", waitBuckets),
	}
}
