package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// childEnv marks a re-exec'd run. The benchmark binary ignores it; the test
// binary's TestMain sees it and becomes vhbench, so the smoke test goes
// through the same child path.
const childEnv = "VHBENCH_CHILD"

// runOutput is what one child process printed.
type runOutput struct {
	info runInfo
	res  result
}

// child makes one run of workload name in a fresh process: a closed loop
// with one client, one simulation at a time, and a process whose heap,
// peak RSS and CPU time belong to that run alone.
func child(name string, cfg runConfig) (runOutput, error) {
	exe, err := os.Executable()
	if err != nil {
		return runOutput{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-out", cfg.out,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return runOutput{}, fmt.Errorf("%s run: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return runOutput{}, fmt.Errorf("%s run printed %d lines, want its facts and its result", name, len(lines))
	}
	var out runOutput
	if err := json.Unmarshal(lines[len(lines)-2], &out.info); err != nil {
		return runOutput{}, fmt.Errorf("%s run facts: %w", name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &out.res); err != nil {
		return runOutput{}, fmt.Errorf("%s run result: %w", name, err)
	}
	return out, nil
}

// measuredSet is one full set of runs: the timed runs of every workload and
// one traced run each.
type measuredSet struct {
	timed  map[string][]runOutput
	traced map[string]runOutput
}

// measureSet runs every workload `runs` times, round-robin across workloads
// so that host drift spreads evenly over them, then one traced run each.
// All runs share cfg.seed, so their virtual results must be identical.
func measureSet(set []workload, cfg runConfig, runs int) (measuredSet, error) {
	ms := measuredSet{timed: make(map[string][]runOutput), traced: make(map[string]runOutput)}
	for r := 0; r < runs+1; r++ {
		cfg.trace = r == runs
		for _, w := range set {
			fmt.Fprintf(os.Stderr, "vhbench: %s run %d/%d (trace %v)\n", w.name, r+1, runs+1, cfg.trace)
			out, err := child(w.name, cfg)
			if err != nil {
				return ms, err
			}
			if !out.res.Correct {
				return ms, fmt.Errorf("%s: %d of %d ops failed", w.name, out.res.Failed, out.res.Attempted)
			}
			if prev := ms.timed[w.name]; len(prev) > 0 && prev[0].info.SimDigest != out.info.SimDigest {
				return ms, fmt.Errorf("%s: sim_digest %s differs from the first run's %s on the same seed",
					w.name, out.info.SimDigest, prev[0].info.SimDigest)
			}
			if cfg.trace {
				ms.traced[w.name] = out
			} else {
				ms.timed[w.name] = append(ms.timed[w.name], out)
			}
		}
	}
	return ms, nil
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) gives them, which is what the contract
// measures spread with. Fewer than two values have no spread.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return [3]float64{median(s), median(s), median(s)}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, len(s)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// values collects one metric over runs.
func values(runs []runOutput, name string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.res.Metrics[name].Value
	}
	return xs
}

// printSet prints every metric of every workload by name, with its unit.
func printSet(set []workload, ms measuredSet) {
	for _, w := range set {
		runs := ms.timed[w.name]
		info := runs[0].info
		attempted, failed := 0, 0
		for _, r := range append(runs, ms.traced[w.name]) {
			attempted += r.res.Attempted
			failed += r.res.Failed
		}
		fmt.Printf("\n%s: %s\n", w.name, w.why)
		fmt.Printf("  seed %d, %d ops per batch, GOMAXPROCS %d, ops %d, failed_ops %d\n  sim_digest %s\n  model %s\n",
			info.Seed, info.Ops, info.GOMAXPROCS, attempted, failed, info.SimDigest, info.Unvalidated)
		fmt.Printf("  %-22s %14s %14s %14s %3s  %s\n", "end to end", "median", "q1", "q3", "n", "unit")
		for _, d := range endToEnd {
			xs := values(runs, d.name)
			q := quartiles(xs)
			fmt.Printf("  %-22s %14.6g %14.6g %14.6g %3d  %s\n", d.name, q[1], q[0], q[2], len(xs), d.unit)
		}
		raw, slice := make([]float64, len(runs)), make([]float64, len(runs))
		for i, r := range runs {
			raw[i], slice[i] = r.info.RawWallS, r.info.YardSliceMs
		}
		fmt.Printf("  as measured: median raw_wall_s %.6g s beside a yardstick slice of %.6g ms\n", median(raw), median(slice))
		fmt.Printf("  %-34s %14s  %s\n", "per layer (one traced run)", "value", "unit")
		for _, d := range perLayer {
			fmt.Printf("  %-34s %14.6g  %s\n", d.name, ms.traced[w.name].res.Metrics[d.name].Value, d.unit)
		}
	}
}

// worseBy is how much b is worse than a as a share of a, by the metric's
// direction.
func worseBy(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// compareSets judges set b against set a, row by row, and returns the
// number of rows that disagree. An exact metric must repeat; a bounded one
// agrees when b's median is no worse than a's by more than the bound, and
// is unresolved when either set's own spread exceeds the bound — unless
// every run of b reads better than every run of a.
func compareSets(set []workload, a, b measuredSet) int {
	disagree := 0
	row := func(verdict, w, metric, detail string) {
		if verdict == "disagree" {
			disagree++
		}
		fmt.Printf("%-10s %-9s %-34s %s\n", verdict, w, metric, detail)
	}
	for _, w := range set {
		for _, d := range endToEnd {
			xa, xb := values(a.timed[w.name], d.name), values(b.timed[w.name], d.name)
			qa, qb := quartiles(xa), quartiles(xb)
			detail := fmt.Sprintf("first %.6g second %.6g %s", qa[1], qb[1], d.unit)
			if d.exact {
				verdict := "agree"
				if math.Abs(qa[1]-qb[1]) > 1e-9*math.Abs(qa[1]) {
					verdict = "disagree"
				}
				row(verdict, w.name, d.name, detail+" (exact)")
				continue
			}
			worse := worseBy(d, qa[1], qb[1])
			spread := math.Max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
			detail += fmt.Sprintf(", worse by %+.1f%% of bound %g%%, spread %.1f%%", 100*worse, 100*d.bound, 100*spread)
			allBetter := true
			for _, vb := range xb {
				for _, va := range xa {
					allBetter = allBetter && worseBy(d, va, vb) < 0
				}
			}
			switch {
			case spread > d.bound && !allBetter:
				row("unresolved", w.name, d.name, detail)
			case worse > d.bound:
				row("disagree", w.name, d.name, detail)
			default:
				row("agree", w.name, d.name, detail)
			}
		}
		for _, d := range perLayer {
			if !d.exact {
				continue // a host time of one run: printed, not judged
			}
			va, vb := a.traced[w.name].res.Metrics[d.name].Value, b.traced[w.name].res.Metrics[d.name].Value
			verdict := "agree"
			if va != vb {
				verdict = "disagree"
			}
			row(verdict, w.name, d.name, fmt.Sprintf("first %.17g second %.17g %s (exact)", va, vb, d.unit))
		}
		if da, db := a.timed[w.name][0].info.SimDigest, b.timed[w.name][0].info.SimDigest; da != db {
			row("disagree", w.name, "sim_digest", da+" vs "+db)
		} else {
			row("agree", w.name, "sim_digest", da)
		}
	}
	return disagree
}

// runSuite is the default invocation: one command that runs every workload,
// checks its outputs, and prints every metric by name with its unit.
func runSuite(set []workload, cfg runConfig, runs int, selfcheck bool) int {
	first, err := measureSet(set, cfg, runs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vhbench: %v\n", err)
		return 1
	}
	printSet(set, first)
	if !selfcheck {
		return 0
	}
	second, err := measureSet(set, cfg, runs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vhbench: second set: %v\n", err)
		return 1
	}
	printSet(set, second)
	fmt.Printf("\nselfcheck: second set against first, same binary\n")
	if n := compareSets(set, first, second); n > 0 {
		fmt.Printf("selfcheck: %d rows disagree\n", n)
		return 1
	}
	fmt.Println("selfcheck: no row disagrees")
	return 0
}
