// Package experiments regenerates every table and figure of the paper's
// evaluation: the cross-domain static performance study (Figures 2-4), the
// live-migration study (Figure 5, Table II) and the parallel machine
// learning study (Figures 6-8), plus Table I's benchmark inventory.
//
// Each Run* function provisions fresh platforms, repeats every
// configuration Reps times with distinct seeds and averages — the paper's
// "experimental precision" protocol ("running benchmarks three times with
// the same configuration and average the three values") — and returns both
// structured points and a formatted table mirroring the paper's rows.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"vhadoop/internal/core"
	"vhadoop/internal/sim"
)

// Config controls an experiment sweep.
type Config struct {
	Seed  int64
	Reps  int  // repetitions averaged per configuration (paper: 3), at least 1
	Nodes int  // virtual cluster size, at least 2
	Quick bool // trimmed sweeps (tests, smoke runs)
}

// platformOptions builds the standard platform options for a layout.
func (c Config) platformOptions(layout core.Layout, seed int64) core.Options {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Nodes = c.Nodes
	opts.Layout = layout
	return opts
}

// layouts returns the two layouts of the static study.
func layouts() []core.Layout { return []core.Layout{core.Normal, core.CrossDomain} }

// avg runs fn once per repetition with derived seeds and averages the
// returned quantity.
func (c Config) avg(fn func(seed int64) (float64, error)) (float64, error) {
	var sum float64
	for rep := 0; rep < c.Reps; rep++ {
		v, err := fn(c.Seed + int64(rep)*1000)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(c.Reps), nil
}

// table builds an aligned text table.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	fmt.Fprintln(w, strings.Join(dashes(header), "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return sb.String()
}

func dashes(header []string) []string {
	out := make([]string, len(header))
	for i, h := range header {
		out[i] = strings.Repeat("-", len(h))
	}
	return out
}

func secs(t sim.Time) string { return fmt.Sprintf("%.1f", t) }
