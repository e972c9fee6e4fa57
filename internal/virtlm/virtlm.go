// Package virtlm is the paper's Virt-LM live-migration benchmark (Huang et
// al., ICPE 2011) extended from single-VM to whole-cluster migration: it
// migrates every VM of a hadoop virtual cluster from one physical machine to
// another, recording per-VM and overall migration time and downtime —
// exactly the quantities in the paper's Figure 5 and Table II.
package virtlm

import (
	"fmt"
	"math"

	"vhadoop/internal/core"
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
	"vhadoop/internal/xen"
)

// Result is one cluster-migration benchmark run.
type Result struct {
	Scenario string // e.g. "idle.1024MB" or "wordcount.512MB"
	PerVM    []xen.MigrationStats
	// OverallTime is the wall-clock time from the first migration's start
	// to the last one's finish (Xen serialises migrations).
	OverallTime sim.Time
	// OverallDowntime is the summed service interruption across the VMs,
	// the number Table II reports in milliseconds.
	OverallDowntime sim.Time
}

// String formats the Table II row.
func (r Result) String() string {
	return fmt.Sprintf("%-18s overall_migration=%8.2fs overall_downtime=%8.0fms",
		r.Scenario, r.OverallTime, r.OverallDowntime*1e3)
}

// Score condenses a run into Virt-LM's single comparable number: the
// geometric mean of the reference-to-measured ratios of overall migration
// time and overall downtime (higher is better; the reference run scores 1).
func (r Result) Score(ref Result) float64 {
	if r.OverallTime <= 0 || r.OverallDowntime <= 0 {
		return 0
	}
	timeRatio := ref.OverallTime / r.OverallTime
	downRatio := ref.OverallDowntime / r.OverallDowntime
	return math.Sqrt(timeRatio * downRatio)
}

// MigrateCluster live-migrates every VM currently hosted on `from` to `to`,
// sequentially, and aggregates the statistics.
func MigrateCluster(p *sim.Proc, pl *core.Platform, scenario string, from, to *phys.Machine) (Result, error) {
	res := Result{Scenario: scenario}
	start := p.Now()
	for _, vm := range pl.VMs {
		if vm.Host() != from {
			continue
		}
		stats, err := pl.Xen.Migrate(p, vm, to, pl.Opts.Migration)
		if err != nil {
			return res, fmt.Errorf("virtlm: migrating %s: %w", vm.Name, err)
		}
		res.PerVM = append(res.PerVM, stats)
		res.OverallDowntime += stats.Downtime
	}
	res.OverallTime = p.Now() - start
	if len(res.PerVM) == 0 {
		return res, fmt.Errorf("virtlm: no VMs on %s to migrate", from.Name)
	}
	return res, nil
}
