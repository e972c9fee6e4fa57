package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// sharePkgs are the layers that get their own cpu_share bucket; any other
// vhadoop/internal package is billed to other_pkg.
var sharePkgs = map[string]bool{
	"sim": true, "vnet": true, "hdfs": true, "mapreduce": true,
	"workloads": true, "clustering": true, "jobsvc": true, "obs": true,
}

// watchlist maps a cpu_in metric to the functions whose presence anywhere
// in a stack counts the sample.
var watchlist = map[string][]string{
	"cpu_in.mallocgc":       {"runtime.mallocgc"},
	"cpu_in.handoff":        {"vhadoop/internal/sim.(*Proc).yield", "vhadoop/internal/sim.(*Engine).dispatch"},
	"cpu_in.vnet_recompute": {"vhadoop/internal/vnet.(*Fabric).recomputeRates"},
	"cpu_in.heartbeat":      {"vhadoop/internal/mapreduce.(*Cluster).heartbeatLoop"},
	"cpu_in.pickjob":        {"vhadoop/internal/jobsvc.(*Service).pickJob"},
}

const internalPrefix = "vhadoop/internal/"

// cpuShares decodes the CPU profile at path with `go tool pprof -traces`
// and attributes every sample to the innermost vhadoop/internal/<pkg> frame
// of its stack, so runtime callees (allocation, map access, channel
// operations) are billed to the layer that called them. Stacks with no such
// frame are the collector's background workers or unattributed (scheduler,
// the harness itself).
func cpuShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(out)
}

// parseTraces reads the text `pprof -traces` prints: a header, then one
// block per distinct stack between dashed rules.
func parseTraces(out []byte) (map[string]float64, error) {
	weight := make(map[string]float64)
	var total float64
	var stack []string
	var value float64
	flush := func() {
		if value == 0 {
			return
		}
		total += value
		weight["cpu_share."+shareBucket(stack)] += value
		for metric, fns := range watchlist {
			if slices.ContainsFunc(fns, func(fn string) bool { return slices.Contains(stack, fn) }) {
				weight[metric] += value
			}
		}
		stack, value = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces {
			continue // the header: file, type, duration
		}
		frame := strings.TrimSpace(line)
		if frame == "" {
			continue
		}
		// A trace's first line is "<value> <leaf function>"; the rest are
		// its callers, leaf first, with no value.
		if len(stack) == 0 && value == 0 {
			v, fn, ok := strings.Cut(frame, " ")
			d, err := time.ParseDuration(v)
			if !ok || err != nil {
				return nil, fmt.Errorf("pprof -traces: unexpected sample line %q", line)
			}
			value, frame = d.Seconds(), strings.TrimSpace(fn)
		}
		stack = append(stack, strings.TrimSuffix(frame, " (inline)"))
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	for k := range weight {
		weight[k] /= total
	}
	return weight, nil
}

// shareBucket names the cpu_share bucket of a stack listed leaf first.
func shareBucket(stack []string) string {
	for _, frame := range stack {
		if rest, ok := strings.CutPrefix(frame, internalPrefix); ok {
			pkg, _, _ := strings.Cut(strings.ReplaceAll(rest, "/", "."), ".")
			if sharePkgs[pkg] {
				return pkg
			}
			return "other_pkg"
		}
	}
	for _, frame := range stack {
		switch frame {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc_background"
		}
	}
	return "unattributed"
}
