package experiments

import (
	"fmt"

	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/sim"
	"vhadoop/internal/virtlm"
	"vhadoop/internal/workloads"
)

// MigrationScenario names one Figure 5 / Table II configuration.
type MigrationScenario struct {
	Workload string // "idle" or "wordcount"
	MemMB    float64
}

func (s MigrationScenario) String() string {
	return fmt.Sprintf("%s.%.0fMB", s.Workload, s.MemMB)
}

// MigrationScenarios returns the paper's four configurations.
func MigrationScenarios() []MigrationScenario {
	return []MigrationScenario{
		{Workload: "idle", MemMB: 1024},
		{Workload: "idle", MemMB: 512},
		{Workload: "wordcount", MemMB: 1024},
		{Workload: "wordcount", MemMB: 512},
	}
}

// Fig5Result is the migration study: per-VM stats per scenario (Figure 5)
// and cluster-level aggregates (Table II).
type Fig5Result struct {
	Runs map[string]virtlm.Result
}

// runMigrationScenario migrates the whole cluster off PM1 under the given
// scenario. The wordcount variant sizes the job so every worker stays busy
// through the entire migration window, matching the paper's methodology.
func runMigrationScenario(cfg Config, sc MigrationScenario) (virtlm.Result, error) {
	opts := cfg.options(core.Normal)
	opts.VMMemBytes = sc.MemMB * 1e6
	var res virtlm.Result
	err := runOn(opts, func(p *sim.Proc, pl *core.Platform) error {
		if sc.Workload == "wordcount" {
			// Load a job big enough to keep every worker busy through the
			// whole migration window, submit it, and migrate once a few map
			// waves are in flight.
			inputMB := 2048 * float64(cfg.Nodes)
			recs := datasets.Text(pl.Engine.Rand(), datasets.DefaultTextOptions(inputMB*1e6))
			if _, err := pl.LoadText(p, "/wc/in", inputMB*1e6, recs); err != nil {
				return err
			}
			h, err := pl.MR.Submit(p, workloads.WordcountJob("/wc/in", "", 4, true))
			if err != nil {
				return err
			}
			for {
				mapsDone, maps, _, _ := h.Progress()
				if mapsDone >= maps/16+1 || h.Done() {
					break
				}
				p.Sleep(5)
			}
			res, err = virtlm.MigrateCluster(p, pl, sc.String(), pl.PMs[0], pl.PMs[1])
			if err != nil {
				return err
			}
			// The job must still complete: Hadoop's fault tolerance rides
			// out the downtime (paper §III-C).
			_, err = h.Wait(p)
			return err
		}
		var err error
		res, err = virtlm.MigrateCluster(p, pl, sc.String(), pl.PMs[0], pl.PMs[1])
		return err
	})
	return res, err
}

// RunFig5 runs the four migration scenarios (single rep per scenario: the
// simulation is deterministic and the paper's per-node plot is one run).
func RunFig5(cfg Config) (Fig5Result, error) {
	res := Fig5Result{Runs: make(map[string]virtlm.Result)}
	for _, sc := range MigrationScenarios() {
		out, err := runMigrationScenario(cfg, sc)
		if err != nil {
			return res, fmt.Errorf("%v: %w", sc, err)
		}
		res.Runs[sc.String()] = out
	}
	return res, nil
}

// PerVMTable renders Figure 5's per-node migration time and downtime.
func (r Fig5Result) PerVMTable() string {
	var rows [][]string
	for _, sc := range MigrationScenarios() {
		for _, s := range r.Runs[sc.String()].PerVM {
			rows = append(rows, []string{
				sc.String(), s.VM,
				fmt.Sprintf("%.2f", s.Total),
				fmt.Sprintf("%.0f", s.Downtime*1e3),
				fmt.Sprintf("%d", s.Rounds),
			})
		}
	}
	return table([]string{"Scenario", "VM", "Migration (s)", "Downtime (ms)", "Rounds"}, rows)
}

// Table2 renders the paper's Table II: overall migration time and downtime
// of the whole cluster per scenario, plus the Virt-LM score relative to the
// idle 1024 MB reference run.
func (r Fig5Result) Table2() string {
	ref := r.Runs["idle.1024MB"]
	header := []string{"Scenario", "Overall Migration Time (s)", "Overall Downtime (ms)", "Virt-LM Score"}
	return tableOf(header, MigrationScenarios(), func(sc MigrationScenario) []string {
		run := r.Runs[sc.String()]
		return []string{
			sc.String(),
			fmt.Sprintf("%.2f", run.OverallTime),
			fmt.Sprintf("%.0f", run.OverallDowntime*1e3),
			fmt.Sprintf("%.2f", run.Score(ref)),
		}
	})
}
