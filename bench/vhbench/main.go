// Command vhbench is the repository's benchmark: four workloads over the
// deterministic vHadoop simulator, eight end-to-end metrics per workload,
// and per-layer attribution measured from outside the layers.
//
// With -workload it makes one run (the form BENCHMARK.json's command uses)
// and prints one JSON result as the last line of standard output. Without,
// it runs every workload -runs times, interleaved, then one traced run each,
// and prints every metric as median and quartiles; -selfcheck does that
// twice and compares the two sets by the benchmark's own bounds.
// See ../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("vhbench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload once and print one JSON result; empty runs the whole suite")
	seed := fs.Int64("seed", 1, "workload seed: op i of a batch runs on platform seed seed*1000+i+1")
	seconds := fs.Float64("seconds", 20, "host seconds to measure per run; fixed-work batches repeat until it is reached")
	trace := fs.Int("trace", 0, "1 makes a traced run, which prints the per-layer metrics instead of the end-to-end ones")
	runs := fs.Int("runs", 5, "suite: timed runs per workload")
	out := fs.String("out", ".bench_build/out", "directory for trace-<workload>.json and CPU profiles")
	selfcheck := fs.Bool("selfcheck", false, "suite: run two sets back to back and compare them by the bounds")
	smoke := fs.Bool("smoke", false, "one op per batch and the quick job-service backlog; for the smoke test, numbers compare with nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "vhbench: bad arguments; see -help")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, out: *out}
	set := workloadSet(*smoke)
	if *name == "" {
		return runSuite(set, cfg, *runs, *selfcheck)
	}
	for _, w := range set {
		if w.name != *name {
			continue
		}
		res, info, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vhbench: %s: %v\n", w.name, err)
			return 1
		}
		return printRun(res, info)
	}
	fmt.Fprintf(os.Stderr, "vhbench: unknown workload %q\n", *name)
	return 2
}

// printRun writes the run's facts on one line and its result on the last.
func printRun(res result, info runInfo) int {
	for _, v := range []any{info, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vhbench: encode result: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "vhbench: %s: %d of %d ops failed\n", info.Workload, res.Failed, res.Attempted)
	}
	return 0
}
