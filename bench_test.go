package vhadoop_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// iteration provisions a fresh platform and runs the experiment; the
// reported custom metric "vsec" is the virtual (simulated) time the
// experiment took on the modelled testbed — the quantity the paper plots —
// while ns/op measures the simulator itself.

import (
	"fmt"
	"testing"

	"vhadoop/internal/classify"
	"vhadoop/internal/cloud"
	"vhadoop/internal/clustering"
	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/experiments"
	"vhadoop/internal/hdfs"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/recommend"
	"vhadoop/internal/sim"
	"vhadoop/internal/virtlm"
	"vhadoop/internal/viz"
	"vhadoop/internal/workloads"
)

func platformOpts(nodes int, layout core.Layout, seed int64) core.Options {
	opts := core.DefaultOptions()
	opts.Nodes = nodes
	opts.Layout = layout
	opts.Seed = seed
	return opts
}

// reportVsec attaches the virtual duration to the benchmark output.
func reportVsec(b *testing.B, v sim.Time) {
	b.Helper()
	b.ReportMetric(v, "vsec")
}

// BenchmarkFig2Wordcount regenerates Figure 2: Wordcount runtime per input
// size for the normal and cross-domain layouts.
func BenchmarkFig2Wordcount(b *testing.B) {
	for _, layout := range []core.Layout{core.Normal, core.CrossDomain} {
		for _, sizeMB := range []float64{64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/%.0fMB", layout, sizeMB), func(b *testing.B) {
				var last sim.Time
				for i := 0; i < b.N; i++ {
					pl := core.MustNewPlatform(platformOpts(16, layout, int64(i+1)))
					var res workloads.WordcountResult
					if _, err := pl.Run(func(p *sim.Proc) error {
						var err error
						res, err = workloads.RunWordcount(p, pl, "/wc", sizeMB*1e6, 4, true)
						return err
					}); err != nil {
						b.Fatal(err)
					}
					last = res.Stats.Runtime
				}
				reportVsec(b, last)
			})
		}
	}
}

// BenchmarkFig3aMRBenchMaps regenerates Figure 3(a): MRBench with reduce=1
// and 1..6 maps.
func BenchmarkFig3aMRBenchMaps(b *testing.B) {
	for _, maps := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("maps-%d", maps), func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				pl := core.MustNewPlatform(platformOpts(16, core.Normal, int64(i+1)))
				var res workloads.MRBenchResult
				if _, err := pl.Run(func(p *sim.Proc) error {
					opts := workloads.DefaultMRBenchOptions()
					opts.Maps = maps
					var err error
					res, err = workloads.RunMRBench(p, pl, opts)
					return err
				}); err != nil {
					b.Fatal(err)
				}
				last = res.AvgTime
			}
			reportVsec(b, last)
		})
	}
}

// BenchmarkFig3bMRBenchReduces regenerates Figure 3(b): MRBench with map=15
// and 1..6 reduces over the tool's classic tiny input.
func BenchmarkFig3bMRBenchReduces(b *testing.B) {
	for _, reduces := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("reduces-%d", reduces), func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				pl := core.MustNewPlatform(platformOpts(16, core.Normal, int64(i+1)))
				var res workloads.MRBenchResult
				if _, err := pl.Run(func(p *sim.Proc) error {
					opts := workloads.DefaultMRBenchOptions()
					opts.Maps = 15
					opts.Reduces = reduces
					opts.BytesPerMap = 2e6
					opts.LinesPerMap = 16
					var err error
					res, err = workloads.RunMRBench(p, pl, opts)
					return err
				}); err != nil {
					b.Fatal(err)
				}
				last = res.AvgTime
			}
			reportVsec(b, last)
		})
	}
}

// BenchmarkFig4aTeraSort regenerates Figure 4(a): TeraGen + TeraSort over
// data sizes bracketing the spill knee.
func BenchmarkFig4aTeraSort(b *testing.B) {
	for _, sizeMB := range []float64{100, 400, 1000} {
		b.Run(fmt.Sprintf("%.0fMB", sizeMB), func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				pl := core.MustNewPlatform(platformOpts(16, core.Normal, int64(i+1)))
				var res workloads.TeraResult
				if _, err := pl.Run(func(p *sim.Proc) error {
					var err error
					res, err = workloads.RunTeraSort(p, pl, workloads.DefaultTeraOptions(sizeMB*1e6))
					return err
				}); err != nil {
					b.Fatal(err)
				}
				if !res.Validated {
					b.Fatal("terasort output failed validation")
				}
				last = res.GenTime + res.SortTime
			}
			reportVsec(b, last)
		})
	}
}

// BenchmarkFig4bDFSIO regenerates Figure 4(b): TestDFSIO write then read.
func BenchmarkFig4bDFSIO(b *testing.B) {
	for _, layout := range []core.Layout{core.Normal, core.CrossDomain} {
		b.Run(layout.String(), func(b *testing.B) {
			var readMBps float64
			for i := 0; i < b.N; i++ {
				pl := core.MustNewPlatform(platformOpts(16, layout, int64(i+1)))
				if _, err := pl.Run(func(p *sim.Proc) error {
					o := workloads.DFSIOOptions{Files: 8, FileBytes: 128e6}
					w, err := workloads.RunDFSIOWrite(p, pl, o)
					if err != nil {
						return err
					}
					r, err := workloads.RunDFSIORead(p, pl, o)
					if err != nil {
						return err
					}
					readMBps = r.ThroughputMBps
					_ = w
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(readMBps, "readMB/s")
		})
	}
}

// BenchmarkFig5Table2Migration regenerates Figure 5 / Table II: whole-cluster
// live migration, idle vs loaded, per memory size.
func BenchmarkFig5Table2Migration(b *testing.B) {
	for _, memMB := range []float64{512, 1024} {
		b.Run(fmt.Sprintf("idle-%.0fMB", memMB), func(b *testing.B) {
			var res virtlm.Result
			for i := 0; i < b.N; i++ {
				opts := platformOpts(16, core.Normal, int64(i+1))
				opts.VMMemBytes = memMB * 1e6
				pl := core.MustNewPlatform(opts)
				if _, err := pl.Run(func(p *sim.Proc) error {
					var err error
					res, err = virtlm.MigrateCluster(p, pl, "idle", pl.PMs[0], pl.PMs[1])
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportVsec(b, res.OverallTime)
			b.ReportMetric(res.OverallDowntime*1e3, "downtime-ms")
		})
	}
}

// BenchmarkFig6Clustering regenerates Figure 6: the three control-chart
// clustering algorithms across virtual cluster sizes.
func BenchmarkFig6Clustering(b *testing.B) {
	series := datasets.ControlChart(sim.New(42).Rand(), datasets.DefaultControlChartOptions())
	vectors := clustering.FromFloats(datasets.ControlVectors(series))
	for _, nodes := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("canopy-%dnodes", nodes), func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				pl := core.MustNewPlatform(platformOpts(nodes, core.Normal, int64(i+1)))
				d := clustering.NewDriver(pl, "/ml/in")
				var res clustering.Result
				if _, err := pl.Run(func(p *sim.Proc) error {
					if err := d.Load(p, vectors); err != nil {
						return err
					}
					var err error
					res, err = clustering.CanopyMR(p, d,
						clustering.CanopyOptions{T1: 80, T2: 55, Distance: clustering.Euclidean})
					return err
				}); err != nil {
					b.Fatal(err)
				}
				last = res.Runtime
			}
			reportVsec(b, last)
		})
	}
}

// BenchmarkFig7DisplayClustering regenerates Figure 7: k-means on the
// 1000-sample mixture across cluster sizes (the lightest of the six
// algorithms' sweeps; cmd/vhadoop fig7 runs all of them).
func BenchmarkFig7DisplayClustering(b *testing.B) {
	pts, _ := datasets.DisplayClusteringSample(sim.New(42).Rand())
	vectors := clustering.FromFloats(pts)
	for _, nodes := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("kmeans-%dnodes", nodes), func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				pl := core.MustNewPlatform(platformOpts(nodes, core.Normal, int64(i+1)))
				d := clustering.NewDriver(pl, "/ml/in")
				var res clustering.Result
				if _, err := pl.Run(func(p *sim.Proc) error {
					if err := d.Load(p, vectors); err != nil {
						return err
					}
					var err error
					res, err = clustering.KMeansMR(p, d, d.InitCenters(3), clustering.DefaultKMeansOptions(3))
					return err
				}); err != nil {
					b.Fatal(err)
				}
				last = res.Runtime
			}
			reportVsec(b, last)
		})
	}
}

// BenchmarkFig8Visualize regenerates Figure 8: one clustering run plus the
// SVG rendering of its convergence.
func BenchmarkFig8Visualize(b *testing.B) {
	res, err := experiments.RunFig8(experiments.Config{Seed: 1, Reps: 1, Nodes: 8, Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	pts, _ := datasets.DisplayClusteringSample(sim.New(1).Rand())
	vectors := clustering.FromFloats(pts)
	kres := clustering.Result{History: [][]clustering.Vector{{{1, 1}, {0, 2}}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = viz.RenderClusters(vectors, kres, viz.DefaultOptions("bench"))
	}
	b.ReportMetric(float64(len(res.Order)), "panels")
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblationCombiner measures Wordcount with and without map-side
// combining.
func BenchmarkAblationCombiner(b *testing.B) {
	for _, combine := range []bool{true, false} {
		b.Run(fmt.Sprintf("combiner-%v", combine), func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				pl := core.MustNewPlatform(platformOpts(16, core.Normal, int64(i+1)))
				var res workloads.WordcountResult
				if _, err := pl.Run(func(p *sim.Proc) error {
					var err error
					res, err = workloads.RunWordcount(p, pl, "/wc", 1024e6, 4, combine)
					return err
				}); err != nil {
					b.Fatal(err)
				}
				last = res.Stats.Runtime
			}
			reportVsec(b, last)
		})
	}
}

// BenchmarkAblationLocality measures Wordcount with delay scheduling on
// (default) and with locality-blind task assignment.
func BenchmarkAblationLocality(b *testing.B) {
	for _, disable := range []bool{false, true} {
		b.Run(fmt.Sprintf("locality-blind-%v", disable), func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				opts := platformOpts(16, core.CrossDomain, int64(i+1))
				opts.MR.DisableLocality = disable
				pl := core.MustNewPlatform(opts)
				var res workloads.WordcountResult
				if _, err := pl.Run(func(p *sim.Proc) error {
					var err error
					res, err = workloads.RunWordcount(p, pl, "/wc", 1024e6, 4, true)
					return err
				}); err != nil {
					b.Fatal(err)
				}
				last = res.Stats.Runtime
			}
			reportVsec(b, last)
		})
	}
}

// BenchmarkAblationReplication sweeps dfs.replication for DFSIO writes.
func BenchmarkAblationReplication(b *testing.B) {
	for _, repl := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("replication-%d", repl), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				opts := platformOpts(16, core.Normal, int64(i+1))
				opts.HDFS.Replication = repl
				pl := core.MustNewPlatform(opts)
				if _, err := pl.Run(func(p *sim.Proc) error {
					w, err := workloads.RunDFSIOWrite(p, pl, workloads.DFSIOOptions{Files: 8, FileBytes: 128e6})
					mbps = w.ThroughputMBps
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mbps, "writeMB/s")
		})
	}
}

// BenchmarkAblationHostCache measures DFSIO reads with the dom0 page cache
// (file-backed disks) and without it (blktap O_DIRECT).
func BenchmarkAblationHostCache(b *testing.B) {
	for _, cache := range []bool{true, false} {
		b.Run(fmt.Sprintf("cache-%v", cache), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				opts := platformOpts(16, core.Normal, int64(i+1))
				opts.HDFS.UseHostCache = cache
				pl := core.MustNewPlatform(opts)
				if _, err := pl.Run(func(p *sim.Proc) error {
					o := workloads.DFSIOOptions{Files: 8, FileBytes: 128e6}
					if _, err := workloads.RunDFSIOWrite(p, pl, o); err != nil {
						return err
					}
					r, err := workloads.RunDFSIORead(p, pl, o)
					mbps = r.ThroughputMBps
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mbps, "readMB/s")
		})
	}
}

// BenchmarkAblationSortBuffer sweeps io.sort.mb around the TeraSort knee.
func BenchmarkAblationSortBuffer(b *testing.B) {
	for _, bufMB := range []float64{50, 100, 400} {
		b.Run(fmt.Sprintf("sortbuf-%.0fMB", bufMB), func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				opts := platformOpts(16, core.Normal, int64(i+1))
				opts.MR.SortBufferBytes = bufMB * 1e6
				pl := core.MustNewPlatform(opts)
				var res workloads.TeraResult
				if _, err := pl.Run(func(p *sim.Proc) error {
					var err error
					res, err = workloads.RunTeraSort(p, pl, workloads.DefaultTeraOptions(600e6))
					return err
				}); err != nil {
					b.Fatal(err)
				}
				last = res.SortTime
			}
			reportVsec(b, last)
		})
	}
}

// BenchmarkEngineThroughput measures the raw simulator: events processed
// for a full 16-node wordcount, isolating simulator cost from model time.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pl := core.MustNewPlatform(platformOpts(16, core.Normal, int64(i+1)))
		if _, err := pl.Run(func(p *sim.Proc) error {
			_, err := workloads.RunWordcount(p, pl, "/wc", 256e6, 4, true)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPlacement compares flat-rack HDFS (the paper's
// unconfigured clusters) against PM-aware placement + selection on a
// cross-domain cluster.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, aware := range []bool{false, true} {
		b.Run(fmt.Sprintf("pm-aware-%v", aware), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				opts := platformOpts(16, core.CrossDomain, int64(i+1))
				opts.HDFS.PMAware = aware
				pl := core.MustNewPlatform(opts)
				if _, err := pl.Run(func(p *sim.Proc) error {
					o := workloads.DFSIOOptions{Files: 8, FileBytes: 128e6}
					if _, err := workloads.RunDFSIOWrite(p, pl, o); err != nil {
						return err
					}
					r, err := workloads.RunDFSIORead(p, pl, o)
					mbps = r.ThroughputMBps
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mbps, "readMB/s")
		})
	}
}

// BenchmarkAblationGangMigration compares sequential cluster migration (the
// paper's method) against concurrent "gang" migration.
func BenchmarkAblationGangMigration(b *testing.B) {
	for _, gang := range []bool{false, true} {
		name := "sequential"
		if gang {
			name = "gang"
		}
		b.Run(name, func(b *testing.B) {
			var res virtlm.Result
			for i := 0; i < b.N; i++ {
				opts := platformOpts(8, core.Normal, int64(i+1))
				opts.VMMemBytes = 512e6
				pl := core.MustNewPlatform(opts)
				if _, err := pl.Run(func(p *sim.Proc) error {
					var err error
					if gang {
						res, err = virtlm.MigrateClusterParallel(p, pl, name, pl.PMs[0], pl.PMs[1])
					} else {
						res, err = virtlm.MigrateCluster(p, pl, name, pl.PMs[0], pl.PMs[1])
					}
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportVsec(b, res.OverallTime)
			b.ReportMetric(res.OverallDowntime*1e3, "downtime-ms")
		})
	}
}

// BenchmarkMLClassification measures the Naive Bayes training job (the ML
// library's classification category).
func BenchmarkMLClassification(b *testing.B) {
	docs := classify.SyntheticDocs(7, []string{"a", "b", "c"}, 80, 25)
	var last sim.Time
	for i := 0; i < b.N; i++ {
		pl := core.MustNewPlatform(platformOpts(8, core.Normal, int64(i+1)))
		tr := classify.NewTrainer(pl, "/bayes")
		if _, err := pl.Run(func(p *sim.Proc) error {
			if err := tr.Load(p, docs); err != nil {
				return err
			}
			_, stats, err := tr.TrainMR(p)
			last = stats.Runtime
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	reportVsec(b, last)
}

// BenchmarkMLRecommendation measures the three-stage item-based
// collaborative filtering pipeline (the ML library's third category).
func BenchmarkMLRecommendation(b *testing.B) {
	prefs := recommend.SyntheticPrefs(5, 3, 20, 40, 12)
	var last sim.Time
	for i := 0; i < b.N; i++ {
		pl := core.MustNewPlatform(platformOpts(8, core.Normal, int64(i+1)))
		job := recommend.NewJob(pl, "/prefs")
		if _, err := pl.Run(func(p *sim.Proc) error {
			if err := job.Load(p, prefs); err != nil {
				return err
			}
			_, stats, err := job.RunMR(p)
			last = 0
			for _, s := range stats {
				last += s.Runtime
			}
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	reportVsec(b, last)
}

// BenchmarkCloudProvision measures on-demand cluster provisioning with VM
// boot (the paper's future-work service).
func BenchmarkCloudProvision(b *testing.B) {
	for _, nodes := range []int{4, 16} {
		b.Run(fmt.Sprintf("%dnodes", nodes), func(b *testing.B) {
			var took sim.Time
			for i := 0; i < b.N; i++ {
				opts := platformOpts(2, core.Normal, int64(i+1))
				pl := core.MustNewPlatform(opts)
				for _, vm := range pl.VMs {
					vm.Shutdown()
				}
				svc := cloud.NewService(pl.Xen, pl.PMs)
				if _, err := pl.Run(func(p *sim.Proc) error {
					defer svc.ReleaseAll()
					start := p.Now()
					req := cloud.Request{
						Name: "bench", Nodes: nodes, VMMemBytes: 1024e6, Boot: true,
						HDFS: hdfs.DefaultConfig(), MR: mapreduce.DefaultConfig(),
					}
					_, err := svc.Provision(p, req)
					took = p.Now() - start
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportVsec(b, took)
		})
	}
}
