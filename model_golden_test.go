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

	"vhadoop/internal/core"
	"vhadoop/internal/difftest"
	"vhadoop/internal/experiments"
	"vhadoop/internal/faults/chaostest"
	"vhadoop/internal/nmon"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

var updateModelGolden = flag.Bool("update", false, "rewrite the model golden table and its reference texts from this run")

// quickConfig is the sweep `vhadoop -quick` runs at its default flags.
var quickConfig = experiments.Config{Seed: 1, Reps: 3, Nodes: 16, Quick: true}

// chaosSeed3 is `vhadoop -seed 3 chaos`: one generated fault schedule
// against the chaos Wordcount, run once and shared by its three rows.
var chaosSeed3 = sync.OnceValues(func() (chaostest.Result, error) {
	return chaostest.Run(chaostest.Wordcount(), 3, chaostest.GenSchedule(3, 3, 30))
})

// modelGolden pins every model output a user reads: each table that
// `vhadoop -quick all` prints, the nmon capture it writes, and the three
// `vhadoop -seed 3 chaos` artifacts. A change that moves one of these
// digests changes the model; `go test -run TestModelGolden -update .`
// rewrites the digests below and the reference texts under
// testdata/model, so the change shows as a reviewed diff of both.
var modelGolden = []struct {
	name   string
	run    func() (string, error)
	sha256 string
}{
	{"table1", func() (string, error) { return experiments.Table1(), nil }, "40cf7b9180aafd6d101163aebdb61048714b5e409c11b1c0bfaa346d978e872f"},
	{"fig2", func() (string, error) { return table(experiments.RunFig2(quickConfig)) }, "e9b62c28d5c6b845bc8b5d07ef88f39cd3dc10034faf14d1de9f1cf152925b3a"},
	{"fig3", func() (string, error) { return table(experiments.RunFig3(quickConfig)) }, "9afe3968bdef3104734b6a725304ad8b3891bf72e887ab32afd88b6a02d701bf"},
	{"fig4a", func() (string, error) { return table(experiments.RunFig4a(quickConfig)) }, "29753285827cdf1b6a3ceb2be628c8c1a16774ea49f2b721b7cbc84d859943c0"},
	{"fig4b", func() (string, error) { return table(experiments.RunFig4b(quickConfig)) }, "7625d03d9012042af35c6f0be76f76cc94fffca8b7c0ded2870d627e966a9b60"},
	{"fig5+table2", runFig5, "8e1edc69ee28010f5014e5b44fd01bd45761a18ee15f7db0da03629f8099cc26"},
	{"fig6", func() (string, error) { return table(experiments.RunFig6(quickConfig)) }, "260136d49d0dd399ff24225e1053d3871186e06531cabb8b2c40eefcd3361bfd"},
	{"fig7", func() (string, error) { return table(experiments.RunFig7(quickConfig)) }, "fac209b257781e49fe5542ac01fd1277591c0ba7a0af70e30d0eca92618c5976"},
	{"nmon", runNmonCapture, "ee267c04c68ef1240c0d99bdd455d6d8975936b02484c8fa42e57b6ca8f73991"},
	{"jobsvc", runJobsvcStudy, "98305ac725d2a431fecefcc5269ecc981749b0a22e11a294307c3bff4c848129"},
	{"chaos-seed3/metrics", func() (string, error) { r, err := chaosSeed3(); return r.Metrics, err }, "f7ae638f13c7072dc2b3eba04f91edf534103ce1d3502888e68d1c1f779f4252"},
	{"chaos-seed3/trace", func() (string, error) { r, err := chaosSeed3(); return r.TraceJSON, err }, "d06e3ef4aee3d03add707407d5589168fa9362fe478545368c06e82c978f0cd8"},
	{"chaos-seed3/output", func() (string, error) { r, err := chaosSeed3(); return r.Output, err }, "67f727b0cf5e8346300e7ee29af2fbf221ef3aae229eb050660ccb2995e9bcda"},
}

// table renders an experiment result's table.
func table[R interface{ Table() string }](r R, err error) (string, error) {
	return r.Table(), err
}

func runFig5() (string, error) {
	r, err := experiments.RunFig5(quickConfig)
	return r.PerVMTable() + r.Table2(), err
}

func runJobsvcStudy() (string, error) {
	r, err := experiments.RunJobsvc(quickConfig)
	return r.Table() + r.MetricsLines(), err
}

// runNmonCapture is `vhadoop -quick nmon`: a monitored 1 GB Wordcount on
// the 16-node cluster, reduced to the analyser's bottleneck, the CSV
// capture and the platform's metrics snapshot with the nmon_* gauges.
func runNmonCapture() (string, error) {
	opts := core.DefaultOptions()
	opts.Seed = quickConfig.Seed
	opts.Nodes = quickConfig.Nodes
	pl := core.MustNewPlatform(opts)
	mon := nmon.New(pl.Engine, pl.Obs)
	for _, vm := range pl.VMs {
		mon.Watch(vm)
	}
	for _, pm := range pl.PMs {
		mon.WatchMachine(pm)
	}
	mon.WatchDisk(pl.Filer.Disk)
	mon.WatchLink(pl.Filer.NICTx)
	mon.WatchLink(pl.Filer.NICRx)
	mon.Start()
	if _, err := pl.Run(func(p *sim.Proc) error {
		defer mon.Stop()
		_, err := workloads.RunWordcount(p, pl, "/nmon/corpus", 1024e6, 4, true)
		return err
	}); err != nil {
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
