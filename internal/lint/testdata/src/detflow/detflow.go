// Test fixtures for the detflow analyzer: interprocedural taint from
// nondeterminism sources (host clock, global math/rand, map iteration
// order, channel receives) into reproducibility sinks. The package is
// named main so the program-output sinks (fmt.Print*, os.WriteFile)
// are live alongside the span-trace sink.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"vhadoop/internal/jobsvc"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/obs"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

func main() {}

// traceClock feeds the host clock straight into the span trace.
func traceClock(pl *obs.Plane) {
	pl.Eventf(obs.KindCluster, "started at %v", time.Now()) // want "the host clock"
}

// stamp derives a string from the wall clock; its summary carries the
// clock taint to every caller.
func stamp() string {
	return time.Now().String()
}

// traceStamp picks the taint up across the call to stamp.
func traceStamp(pl *obs.Plane) {
	pl.Eventf(obs.KindCluster, "stamp %s", stamp()) // want "the host clock"
}

// traceVia itself is clean — in report mode parameters start
// untainted, because call sites account for their arguments — but its
// summary records that argument position 1 reaches a sink inside.
func traceVia(pl *obs.Plane, msg string) {
	pl.Eventf(obs.KindCluster, "%s", msg)
}

// callTraceVia is caught through traceVia's sink-parameter summary.
func callTraceVia(pl *obs.Plane) {
	traceVia(pl, time.Now().String()) // want "sink inside traceVia"
}

// traceElapsed propagates clock taint through two local assignments.
func traceElapsed(pl *obs.Plane) {
	start := time.Now()
	elapsed := time.Since(start)
	pl.Eventf(obs.KindCluster, "took %v", elapsed) // want "the host clock"
}

// printKeysUnsorted builds a slice in map-visit order and prints it. The
// comparator sort does not cleanse: a comparator that ties would leave
// tied runs in map order, so only provably-total sorts count.
func printKeysUnsorted(counts map[string]int) {
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	fmt.Println(keys) // want "map iteration order"
}

// printKeysSorted is the blessed idiom: sort.Strings imposes a total
// order, which cleanses the map-order taint before the sink.
func printKeysSorted(counts map[string]int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println(keys)
}

// printDraw lets the global math/rand stream reach program output.
func printDraw() {
	fmt.Printf("draw=%d\n", rand.Intn(6)) // want "math/rand stream"
}

// printFirstResult prints whichever goroutine finished first: channel
// receives carry goroutine completion order.
func printFirstResult(results chan string) {
	v := <-results
	fmt.Println(v) // want "goroutine completion order"
}

// dumpReport writes map-ordered lines to a file sink.
func dumpReport(counts map[string]int) error {
	var lines []string
	for k, v := range counts {
		lines = append(lines, fmt.Sprintf("%s=%d", k, v))
	}
	return os.WriteFile("report.txt", []byte(strings.Join(lines, "\n")), 0o644) // want "map iteration order"
}

// emitKeys writes keys to job output in map-visit order through the
// dynamic mapreduce.Emit sink.
func emitKeys(emit mapreduce.Emit, counts map[string]int) {
	for k := range counts {
		emit(k, 1, 1) // want "map iteration order"
	}
}

// pickAny returns an arbitrary key. Determinism is argued by hand (any
// key is acceptable here), so the body is vouched for and callers see a
// clean summary.
//
//vhlint:detsafe -- test fixture: any key is acceptable, the choice is not replay-compared
func pickAny(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}

// printAny is clean: pickAny's detsafe summary clears the taint.
func printAny(m map[string]int) {
	fmt.Println(pickAny(m))
}

// constantLabel's only map-ordered return sits inside a nested func
// literal; that return belongs to the closure, not to constantLabel,
// whose own result is a literal. Its summary must stay clean.
func constantLabel(m map[string]int) string {
	pick := func() string {
		for k := range m {
			return k
		}
		return ""
	}
	_ = pick
	return "label"
}

// printConstant is clean thanks to constantLabel's closure-free summary.
func printConstant(m map[string]int) {
	fmt.Println(constantLabel(m))
}

// printTimestampAllowed documents a deliberate wall-clock trace line.
func printTimestampAllowed(pl *obs.Plane) {
	//vhlint:allow detflow -- test fixture: timing line excluded from replay comparison
	pl.Eventf(obs.KindCluster, "wall time %v", time.Now())
}

// staleAllowed annotates a line that sinks nothing nondeterministic.
func staleAllowed(pl *obs.Plane) {
	//vhlint:allow detflow -- test fixture: constant trace needs no allow // want "stale //vhlint:allow detflow"
	pl.Eventf(obs.KindCluster, "constant line")
}

// The rest of the observability plane's exports (span names and
// attributes, the metrics snapshot) are replay-compared byte for byte,
// so they are sinks exactly like events.

// obsEventClock feeds the host clock into a typed span event.
func obsEventClock(pl *obs.Plane) {
	pl.Eventf(obs.KindCluster, "started at %v", time.Now()) // want "the host clock"
}

// obsSpanNameFromMap opens a span named by a map-ordered pick.
func obsSpanNameFromMap(tr *obs.Tracer, m map[string]int) {
	var name string
	for k := range m {
		name = k
	}
	tr.Start(obs.KindTask, name, nil) // want "map iteration order"
}

// obsAttrFromRand lets the global math/rand stream reach a span attribute.
func obsAttrFromRand(sp *obs.Span) {
	sp.SetFloat("draw", rand.Float64()) // want "math/rand stream"
}

// obsCounterLabelFromMap mints counter label values in map-visit order:
// the labels land in the metrics snapshot's canonical key set.
func obsCounterLabelFromMap(reg *obs.Registry, m map[string]int) {
	for k := range m {
		reg.Counter("hits_total", "key", k).Inc() // want "map iteration order"
	}
}

// obsObserveWallElapsed feeds a wall-clock duration into a histogram.
func obsObserveWallElapsed(h *obs.Histogram) {
	start := time.Now()
	h.Observe(float64(time.Since(start))) // want "the host clock"
}

// obsGaugeClean is the blessed path: deterministic values may flow into
// the registry freely.
func obsGaugeClean(reg *obs.Registry, vms int) {
	reg.Gauge("cluster_vms").Set(float64(vms))
}

// obsSpanClean exercises the span surface with deterministic inputs.
func obsSpanClean(pl *obs.Plane, name string, seconds float64) {
	sp := pl.Start(obs.KindTask, name, nil)
	sp.SetAttr("outcome", "done")
	sp.SetFloat("seconds", seconds)
	sp.Finish()
}

// The job service's submission surface is a sink too: tenant names and
// submission arguments land in the daemon's span events and in the
// canonical per-tenant report, all replay-compared.

// jobsvcRegisterStamp mints a tenant name from the wall clock; the name
// keys the byte-compared tenant report.
func jobsvcRegisterStamp(svc *jobsvc.Service) {
	_, _ = svc.Register(stamp(), 1) // want "the job-service tenant report"
}

// jobsvcSubmitRand routes the global math/rand stream into a submission
// argument; the tenant name lands in the dispatch event.
func jobsvcSubmitRand(p *sim.Proc, svc *jobsvc.Service) {
	_, _ = svc.Submit(p, fmt.Sprintf("t%d", rand.Int()), workloads.WordcountSpec{Input: "/in"}) // want "the job-service event stream"
}

// jobsvcSubmitClean is the blessed path: deterministic tenant names and
// specs flow into the service freely.
func jobsvcSubmitClean(p *sim.Proc, svc *jobsvc.Service) {
	_, _ = svc.Submit(p, "gold", workloads.WordcountSpec{Input: "/in", SizeBytes: 8e6, Reduces: 1})
}
