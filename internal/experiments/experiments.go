// Package experiments regenerates every table and figure of the paper's
// evaluation: the cross-domain static performance study (Figures 2-4), the
// live-migration study (Figure 5, Table II) and the parallel machine
// learning study (Figures 6-8), plus Table I's benchmark inventory.
//
// Each Run* function provisions fresh platforms, repeats every
// configuration Reps times with distinct seeds and averages — the paper's
// "experimental precision" protocol ("running benchmarks three times with
// the same configuration and average the three values") — and returns both
// structured points and a formatted table mirroring the paper's rows. List
// names every experiment the vhadoop command runs and what each one shows.
package experiments

import (
	"fmt"
	"slices"
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

// options builds the standard platform options for a layout at the base
// seed.
func (c Config) options(layout core.Layout) core.Options {
	opts := core.DefaultOptions()
	opts.Seed = c.Seed
	opts.Nodes = c.Nodes
	opts.Layout = layout
	return opts
}

// layouts returns the two layouts of the static study.
func layouts() []core.Layout { return []core.Layout{core.Normal, core.CrossDomain} }

// runOn provisions a fresh platform from opts and runs fn as its driver.
func runOn(opts core.Options, fn func(p *sim.Proc, pl *core.Platform) error) error {
	pl := core.MustNewPlatform(opts)
	_, err := pl.Run(func(p *sim.Proc) error { return fn(p, pl) })
	return err
}

// avg runs fn on a fresh platform from opts once per repetition, seeding
// repetition rep with Seed+rep*1000, and returns the mean of each value fn
// returns, summed in repetition order.
func (c Config) avg(opts core.Options, fn func(p *sim.Proc, pl *core.Platform) ([]float64, error)) ([]float64, error) {
	var sum []float64
	for rep := 0; rep < c.Reps; rep++ {
		opts.Seed = c.Seed + int64(rep)*1000
		var v []float64
		err := runOn(opts, func(p *sim.Proc, pl *core.Platform) (err error) {
			v, err = fn(p, pl)
			return err
		})
		if err != nil {
			return nil, err
		}
		if sum == nil {
			sum = make([]float64, len(v))
		}
		for i, x := range v {
			sum[i] += x
		}
	}
	for i := range sum {
		sum[i] /= float64(c.Reps)
	}
	return sum, nil
}

// pivot renders points as a table: cell gives each point's row label,
// column label and value in seconds. Rows and columns keep first-seen order
// and a missing cell reads 0. With slowdown set, a last column gives each
// row's last value over its first.
func pivot[P any](corner string, points []P, cell func(P) (row, col string, v sim.Time), slowdown bool) string {
	var rows, cols []string
	at := make(map[[2]string]sim.Time, len(points))
	for _, p := range points {
		r, c, v := cell(p)
		if !slices.Contains(rows, r) {
			rows = append(rows, r)
		}
		if !slices.Contains(cols, c) {
			cols = append(cols, c)
		}
		at[[2]string{r, c}] = v
	}
	header := append([]string{corner}, cols...)
	if slowdown {
		header = append(header, "Slowdown")
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r}
		for _, c := range cols {
			out[i] = append(out[i], secs(at[[2]string{r, c}]))
		}
		if slowdown {
			first, last := at[[2]string{r, cols[0]}], at[[2]string{r, cols[len(cols)-1]}]
			out[i] = append(out[i], fmt.Sprintf("%.2fx", last/first))
		}
	}
	return table(header, out)
}

// layoutColumn heads each layout's column in the static study's tables.
var layoutColumn = map[core.Layout]string{core.Normal: "Normal (s)", core.CrossDomain: "Cross-domain (s)"}

// sweep returns the quick or the full sweep of an axis.
func sweep[T any](quick bool, short, full []T) []T {
	if quick {
		return short
	}
	return full
}

// tableOf builds an aligned text table with one row per item.
func tableOf[P any](header []string, items []P, row func(P) []string) string {
	rows := make([][]string, len(items))
	for i, it := range items {
		rows[i] = row(it)
	}
	return table(header, rows)
}

// table builds an aligned text table.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	rule := make([]string, len(header))
	for i, h := range header {
		rule[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(w, strings.Join(rule, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return sb.String()
}

func secs(t sim.Time) string { return fmt.Sprintf("%.1f", t) }
