package nmon

import (
	"fmt"
	"html"
	"math"
	"sort"
	"strings"
)

// The nmon analyser companion tool turns nmon capture files into charts;
// this file is its equivalent: render the monitor's time series as an SVG
// line chart (one series per VM) for CPU utilisation or I/O rates.

// Metric selects which sample field a chart plots.
type Metric int

// Chartable metrics.
const (
	MetricCPU Metric = iota
	MetricDiskBps
	MetricNetBps
)

func (m Metric) String() string {
	switch m {
	case MetricCPU:
		return "CPU utilisation"
	case MetricDiskBps:
		return "disk throughput (B/s)"
	case MetricNetBps:
		return "network throughput (B/s)"
	}
	return "metric"
}

func (m Metric) value(s Sample) float64 {
	switch m {
	case MetricCPU:
		return s.CPU
	case MetricDiskBps:
		return s.DiskReadBps + s.DiskWriteBps
	case MetricNetBps:
		return s.NetTxBps + s.NetRxBps
	}
	return 0
}

// ChartOptions sizes the rendering.
type ChartOptions struct {
	Width, Height int
	Title         string
}

// seriesColors cycles across VMs.
var seriesColors = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// RenderSVG draws the chosen metric for every watched VM as an SVG line
// chart with axes and a legend — the analyser view the paper's operators
// read to spot bottlenecks.
func (m *Monitor) RenderSVG(metric Metric, opts ChartOptions) string {
	if opts.Width <= 0 {
		opts.Width = 800
	}
	if opts.Height <= 0 {
		opts.Height = 360
	}
	title := opts.Title
	if title == "" {
		title = metric.String()
	}

	// Gather series in a stable order.
	names := make([]string, 0, len(m.vms))
	byName := make(map[string]*Series, len(m.vms))
	for _, vm := range m.vms {
		names = append(names, vm.Name)
		byName[vm.Name] = m.series[vm]
	}
	sort.Strings(names)

	var tMax, vMax float64
	for _, name := range names {
		for _, s := range byName[name].Samples {
			tMax = math.Max(tMax, s.T)
			vMax = math.Max(vMax, metric.value(s))
		}
	}
	if tMax == 0 {
		tMax = 1
	}
	if vMax == 0 {
		vMax = 1
	}

	const margin = 48.0
	plotW := float64(opts.Width) - 2*margin
	plotH := float64(opts.Height) - 2*margin
	sx := func(t float64) float64 { return margin + t/tMax*plotW }
	sy := func(v float64) float64 { return margin + plotH - v/vMax*plotH }

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">`+"\n",
		opts.Width, opts.Height)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="white"/>`+"\n", opts.Width, opts.Height)
	fmt.Fprintf(&sb, `<text x="%g" y="24" font-family="sans-serif" font-size="14" fill="#222">%s</text>`+"\n",
		margin, html.EscapeString(title))

	// Axes with light gridlines and tick labels.
	for i := 0; i <= 4; i++ {
		v := vMax * float64(i) / 4
		y := sy(v)
		fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ddd"/>`+"\n",
			margin, y, margin+plotW, y)
		fmt.Fprintf(&sb, `<text x="4" y="%g" font-family="sans-serif" font-size="10" fill="#666">%s</text>`+"\n",
			y+3, humanize(v))
	}
	for i := 0; i <= 6; i++ {
		t := tMax * float64(i) / 6
		x := sx(t)
		fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#eee"/>`+"\n",
			x, margin, x, margin+plotH)
		fmt.Fprintf(&sb, `<text x="%g" y="%g" font-family="sans-serif" font-size="10" fill="#666">%.0fs</text>`+"\n",
			x-8, margin+plotH+14, t)
	}
	fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#333"/>`+"\n",
		margin, margin+plotH, margin+plotW, margin+plotH)
	fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#333"/>`+"\n",
		margin, margin, margin, margin+plotH)

	// One polyline per VM.
	for i, name := range names {
		samples := byName[name].Samples
		if len(samples) == 0 {
			continue
		}
		color := seriesColors[i%len(seriesColors)]
		var pts strings.Builder
		for _, s := range samples {
			fmt.Fprintf(&pts, "%.1f,%.1f ", sx(s.T), sy(metric.value(s)))
		}
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.2"/>`+"\n",
			strings.TrimSpace(pts.String()), color)
		// Legend entry.
		lx := margin + plotW - 80
		ly := margin + 14*float64(i)
		fmt.Fprintf(&sb, `<rect x="%g" y="%g" width="10" height="3" fill="%s"/>`+"\n", lx, ly, color)
		fmt.Fprintf(&sb, `<text x="%g" y="%g" font-family="sans-serif" font-size="10" fill="#333">%s</text>`+"\n",
			lx+14, ly+5, html.EscapeString(name))
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// humanize renders byte rates compactly and fractions as percentages.
func humanize(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.0fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fK", v/1e3)
	case v <= 1 && v > 0:
		return fmt.Sprintf("%.0f%%", v*100)
	}
	return fmt.Sprintf("%.0f", v)
}
