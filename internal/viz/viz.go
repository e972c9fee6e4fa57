// Package viz renders clustering results as SVG, reproducing the paper's
// Figure 8 (Mahout's DisplayClustering screenshots): sample points with the
// clusters of every iteration superimposed — the newest iteration in bold
// red, the preceding ones in orange, yellow, green, blue and magenta, and
// everything older in light grey, so convergence is visible at a glance.
package viz

import (
	"fmt"
	"html"
	"math"
	"strings"

	"vhadoop/internal/clustering"
)

// Mahout DisplayClustering's colour order, newest first.
var iterationColors = []string{
	"#d62728", // bold red: final iteration
	"#ff7f0e", // orange
	"#ffd700", // yellow
	"#2ca02c", // green
	"#1f77b4", // blue
	"#d633ff", // magenta
}

const historyColor = "#cccccc"

// Options controls the rendering.
type Options struct {
	Width, Height int
	Title         string
	// Radius draws each cluster as a circle of this data-space radius; 0
	// sizes circles from the spread of points assigned to each center.
	Radius float64
}

// DefaultOptions mirrors the Mahout demo's 600x600 canvas.
func DefaultOptions(title string) Options {
	return Options{Width: 600, Height: 600, Title: title}
}

// bounds computes the data-space bounding box with a margin.
func bounds(points []clustering.Vector, history [][]clustering.Vector) (minX, minY, maxX, maxY float64) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	consider := func(v clustering.Vector) {
		if len(v) < 2 {
			return
		}
		minX, maxX = math.Min(minX, v[0]), math.Max(maxX, v[0])
		minY, maxY = math.Min(minY, v[1]), math.Max(maxY, v[1])
	}
	for _, p := range points {
		consider(p)
	}
	for _, centers := range history {
		for _, c := range centers {
			consider(c)
		}
	}
	if math.IsInf(minX, 1) {
		return 0, 0, 1, 1
	}
	mx, my := (maxX-minX)*0.08+1e-9, (maxY-minY)*0.08+1e-9
	return minX - mx, minY - my, maxX + mx, maxY + my
}

// RenderClusters renders 2-D sample points and the per-iteration cluster
// centers as an SVG document. Higher-dimensional data is projected onto its
// first two dimensions.
func RenderClusters(points []clustering.Vector, res clustering.Result, opts Options) string {
	if opts.Width <= 0 {
		opts.Width = 600
	}
	if opts.Height <= 0 {
		opts.Height = 600
	}
	minX, minY, maxX, maxY := bounds(points, res.History)
	sx := func(x float64) float64 { return (x - minX) / (maxX - minX) * float64(opts.Width) }
	sy := func(y float64) float64 { return float64(opts.Height) - (y-minY)/(maxY-minY)*float64(opts.Height) }

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		opts.Width, opts.Height, opts.Width, opts.Height)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="white"/>`+"\n", opts.Width, opts.Height)
	if opts.Title != "" {
		fmt.Fprintf(&sb, `<text x="%d" y="18" font-family="sans-serif" font-size="14" fill="#333">%s</text>`+"\n",
			8, html.EscapeString(opts.Title))
	}

	// Sample points.
	for _, p := range points {
		if len(p) < 2 {
			continue
		}
		fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="1.6" fill="#555" fill-opacity="0.5"/>`+"\n",
			sx(p[0]), sy(p[1]))
	}

	// Cluster circles, oldest first so the newest draw on top.
	n := len(res.History)
	for i := 0; i < n; i++ {
		centers := res.History[i]
		age := n - 1 - i // 0 = newest
		color := historyColor
		width := 1.0
		if age < len(iterationColors) {
			color = iterationColors[age]
			width = 1.5
		}
		if age == 0 {
			width = 3
		}
		for ci, c := range centers {
			if len(c) < 2 {
				continue
			}
			r := opts.Radius
			if r <= 0 {
				r = clusterRadius(points, res, i, ci)
			}
			rp := r / (maxX - minX) * float64(opts.Width)
			if rp < 3 {
				rp = 3
			}
			fmt.Fprintf(&sb,
				`<circle cx="%.1f" cy="%.1f" r="%.1f" fill="none" stroke="%s" stroke-width="%.1f"/>`+"\n",
				sx(c[0]), sy(c[1]), rp, color, width)
		}
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// clusterRadius estimates a circle radius for center ci of iteration i: the
// mean distance of its assigned points for the final iteration, shrunk for
// older iterations.
func clusterRadius(points []clustering.Vector, res clustering.Result, iter, ci int) float64 {
	centers := res.History[iter]
	if ci >= len(centers) {
		return 1
	}
	var sum float64
	n := 0
	for _, p := range points {
		if len(p) < 2 {
			continue
		}
		best, _ := clustering.Nearest(p, centers)
		if best == ci {
			sum += clustering.Euclidean(p, centers[ci])
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
