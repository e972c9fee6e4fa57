package vhadoop_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"vhadoop/internal/difftest"
	"vhadoop/internal/experiments"
	"vhadoop/internal/faults/chaostest"
	"vhadoop/internal/nmon"
)

var updateModelGolden = flag.Bool("update", false, "rewrite the model golden table and its reference texts from this run")

// quickConfig is the sweep `vhadoop -quick` runs at its default flags.
var quickConfig = experiments.Config{Seed: 1, Reps: 3, Nodes: 16, Quick: true}

// defaultCharts is the -chart flag's default list.
var defaultCharts = []nmon.Metric{nmon.MetricCPU, nmon.MetricDiskBps, nmon.MetricNetBps}

// quickRuns holds each `vhadoop -quick` experiment by name, run at most
// once and shared by every row that reads it.
var quickRuns = runsOnce(quickConfig)

// chaosSeed3 is `vhadoop -seed 3 chaos`.
var chaosSeed3 = runsOnce(experiments.Config{Seed: 3, Reps: 3, Nodes: 16})["chaos"]

// runsOnce maps each experiment's name to its run at cfg, made at most once.
func runsOnce(cfg experiments.Config) map[string]func() (experiments.Output, error) {
	runs := map[string]func() (experiments.Output, error){}
	for _, e := range experiments.List(defaultCharts) {
		runs[e.Name] = sync.OnceValues(func() (experiments.Output, error) { return e.Run(cfg) })
	}
	return runs
}

// chaosSeed3Result is the same schedule and run as chaosSeed3, for the job
// output the command does not write.
var chaosSeed3Result = sync.OnceValues(func() (chaostest.Result, error) {
	return chaostest.Run(chaostest.Wordcount(), 3, chaostest.GenSchedule(3, 3, 30))
})

// modelGolden pins every model output a user reads: each table that
// `vhadoop -quick all` prints and each file it writes, the nmon run's
// metrics snapshot, and the `vhadoop -seed 3 chaos` artifacts with the
// chaos job's output. A change that moves one of these digests changes the
// model; `go test -run TestModelGolden -update .` rewrites the digests
// below and the reference texts under testdata/model, so the change shows
// as a reviewed diff of both.
var modelGolden = []struct {
	name   string
	run    func() (string, error)
	sha256 string
}{
	{"table1", tables("table1"), "40cf7b9180aafd6d101163aebdb61048714b5e409c11b1c0bfaa346d978e872f"},
	{"fig2", tables("fig2"), "e9b62c28d5c6b845bc8b5d07ef88f39cd3dc10034faf14d1de9f1cf152925b3a"},
	{"fig3", tables("fig3"), "9afe3968bdef3104734b6a725304ad8b3891bf72e887ab32afd88b6a02d701bf"},
	{"fig4a", tables("fig4a"), "29753285827cdf1b6a3ceb2be628c8c1a16774ea49f2b721b7cbc84d859943c0"},
	{"fig4b", tables("fig4b"), "7625d03d9012042af35c6f0be76f76cc94fffca8b7c0ded2870d627e966a9b60"},
	{"fig5+table2", tables("fig5"), "8e1edc69ee28010f5014e5b44fd01bd45761a18ee15f7db0da03629f8099cc26"},
	{"fig6", tables("fig6"), "260136d49d0dd399ff24225e1053d3871186e06531cabb8b2c40eefcd3361bfd"},
	{"fig7", tables("fig7"), "fac209b257781e49fe5542ac01fd1277591c0ba7a0af70e30d0eca92618c5976"},
	{"fig8/sample-data", file(quickRuns["fig8"], "sample-data.svg"), "8fc2e0488b2424eb667d6d3925a37c124af53f25b333df5d2c688be9fda79767"},
	{"fig8/canopy", file(quickRuns["fig8"], "canopy.svg"), "00b2819837515ba247c25e955359de7ac529c0c2d59aacbdf45889fe7256d8e1"},
	{"fig8/dirichlet", file(quickRuns["fig8"], "dirichlet.svg"), "51b040e0240a43f2b3db3fc0b2e5ecf12324be11f345b5cfa1132c9d69371cd7"},
	{"fig8/fuzzykmeans", file(quickRuns["fig8"], "fuzzykmeans.svg"), "1246424c715e2a35e5e80be677e8aa047b0f1a77b7951635db8b30c50780e6ab"},
	{"fig8/kmeans", file(quickRuns["fig8"], "kmeans.svg"), "32995dad583b2e501b371b44ddd251d84136a6aaeb9094a40774346f34f2500e"},
	{"fig8/meanshift", file(quickRuns["fig8"], "meanshift.svg"), "a4ce03f4054de6d1eaae3c75ac5e4c4d4960233dc3691b95191ab2e46f5812f6"},
	{"fig8/minhash", file(quickRuns["fig8"], "minhash.svg"), "223bc6ea94b4fde7f7bea01de53d8d492bdcbcf4b843aea6879b056b7d21db7f"},
	{"nmon", runNmonCapture, "ee267c04c68ef1240c0d99bdd455d6d8975936b02484c8fa42e57b6ca8f73991"},
	{"nmon/cpu", file(quickRuns["nmon"], "cpu.svg"), "c27b9de405b67c32cad7579cd6895f13565aec60be31b40250e270b2ff85b66f"},
	{"nmon/disk", file(quickRuns["nmon"], "disk.svg"), "ab8f6dc5516e57e22af95d7e6e7538f1aa7e900b91a7f244ad7717837c6c7c75"},
	{"nmon/net", file(quickRuns["nmon"], "net.svg"), "b61b0e019c87650cde942a3a919a946106f0a704bd0626a229a7cce414b377aa"},
	{"jobsvc", tables("jobsvc"), "98305ac725d2a431fecefcc5269ecc981749b0a22e11a294307c3bff4c848129"},
	{"chaos-seed3/metrics", file(chaosSeed3, "metrics.prom"), "f7ae638f13c7072dc2b3eba04f91edf534103ce1d3502888e68d1c1f779f4252"},
	{"chaos-seed3/trace", file(chaosSeed3, "trace.json"), "d06e3ef4aee3d03add707407d5589168fa9362fe478545368c06e82c978f0cd8"},
	{"chaos-seed3/output", func() (string, error) { r, err := chaosSeed3Result(); return r.Output, err }, "67f727b0cf5e8346300e7ee29af2fbf221ef3aae229eb050660ccb2995e9bcda"},
	{"chaos-seed3/timeline", file(chaosSeed3, "timeline.svg"), "6b6e7863c6a9c5d80b0ab2af0451366d9175dd48e355722c6efafd961362bf58"},
}

// tables is the named quick experiment's tables and plain lines, without
// their captions.
func tables(name string) func() (string, error) {
	return func() (string, error) {
		out, err := quickRuns[name]()
		var b strings.Builder
		for _, t := range out.Tables {
			b.WriteString(t.Text)
		}
		return b.String() + out.Lines, err
	}
}

// file is the body of one file an experiment writes.
func file(run func() (experiments.Output, error), name string) func() (string, error) {
	return func() (string, error) {
		out, err := run()
		if err != nil {
			return "", err
		}
		for _, f := range out.Files {
			if f.Name == name {
				return f.Body, nil
			}
		}
		return "", fmt.Errorf("no file %s", name)
	}
}

// runNmonCapture is the nmon run of `vhadoop -quick nmon`, reduced to the
// analyser's bottleneck, the CSV capture and the platform's metrics
// snapshot with the nmon_* gauges.
func runNmonCapture() (string, error) {
	mon, pl, err := experiments.RunNmon(quickConfig)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	rep := mon.Analyze()
	fmt.Fprintf(&b, "bottleneck %s (%s) %v\n", rep.Bottleneck.Resource, rep.Bottleneck.Kind, rep.Bottleneck.MeanUtil)
	if err := mon.WriteCSV(&b); err != nil {
		return "", err
	}
	b.WriteString(pl.Obs.Snapshot().PrometheusText())
	return b.String(), nil
}

// TestModelGolden runs every row and compares its digest with the table.
// On a mismatch it reports the first differing line against the row's
// reference text, so a model change names where it shows first.
func TestModelGolden(t *testing.T) {
	got := make([]string, len(modelGolden))
	t.Run("rows", func(t *testing.T) {
		for i, row := range modelGolden {
			t.Run(row.name, func(t *testing.T) {
				t.Parallel()
				text, err := row.run()
				if err != nil {
					t.Fatalf("%s: %v", row.name, err)
				}
				got[i] = text
				if *updateModelGolden {
					return
				}
				sum := fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
				if sum != row.sha256 {
					t.Errorf("%s: sha256 %s, want %s\n%s", row.name, sum, row.sha256, firstDiffReport(row.name, row.sha256, text))
				}
			})
		}
	})
	if *updateModelGolden && !t.Failed() {
		if err := rewriteModelGolden(got); err != nil {
			t.Fatal(err)
		}
	}
}

// referencePath is where -update keeps a row's full text.
func referencePath(name string) string {
	return filepath.Join("testdata", "model", strings.ReplaceAll(name, "/", "_")+".txt")
}

// firstDiffReport locates the first line where got departs from the row's
// reference text. The reference only explains a mismatch; the digest in the
// table is what the test pins.
func firstDiffReport(name, want, got string) string {
	ref, err := os.ReadFile(referencePath(name))
	if err != nil {
		return fmt.Sprintf("  no reference text: %v", err)
	}
	if fmt.Sprintf("%x", sha256.Sum256(ref)) != want {
		return fmt.Sprintf("  reference text %s does not match the table's digest; rerun with -update on the parent", referencePath(name))
	}
	line, wl, gl, _ := difftest.FirstDiff(string(ref), got)
	return fmt.Sprintf("  first difference at line %d\n  want: %s\n  got:  %s", line, wl, gl)
}

var goldenRow = regexp.MustCompile(`^\t\{"([^"]+)", .*"([0-9a-f]{64})?"\},$`)

// rewriteModelGolden writes each row's digest into this file's table and
// its text under testdata/model.
func rewriteModelGolden(texts []string) error {
	const self = "model_golden_test.go"
	src, err := os.ReadFile(self)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join("testdata", "model"), 0o755); err != nil {
		return err
	}
	sums := make(map[string]string, len(modelGolden))
	for i, row := range modelGolden {
		sums[row.name] = fmt.Sprintf("%x", sha256.Sum256([]byte(texts[i])))
		if err := os.WriteFile(referencePath(row.name), []byte(texts[i]), 0o644); err != nil {
			return err
		}
	}
	lines := strings.Split(string(src), "\n")
	for i, l := range lines {
		m := goldenRow.FindStringSubmatchIndex(l)
		if m == nil {
			continue
		}
		sum, ok := sums[l[m[2]:m[3]]]
		if !ok {
			continue
		}
		delete(sums, l[m[2]:m[3]])
		if m[4] < 0 { // empty digest: insert before the closing quote
			lines[i] = l[:len(l)-len(`"},`)] + sum + `"},`
		} else {
			lines[i] = l[:m[4]] + sum + l[m[5]:]
		}
	}
	if len(sums) != 0 {
		return errors.New("model golden: some rows were not found in " + self)
	}
	return os.WriteFile(self, []byte(strings.Join(lines, "\n")), 0o644)
}
