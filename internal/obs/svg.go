package obs

import (
	"fmt"
	"html"
	"sort"
	"strings"
)

// Timeline rendering constants: an nmon-style chart — one lane per
// span, time on the x axis, kind-coloured bars, event ticks.
const (
	svgLaneH   = 18
	svgLaneGap = 4
	svgLabelW  = 260
	svgPlotW   = 820
	svgTopPad  = 34
	svgBotPad  = 16
)

// spanColor maps a span kind to its bar colour (nmon palette-ish).
func spanColor(k SpanKind) string {
	switch k {
	case KindJob:
		return "#4d78b3"
	case KindPhase:
		return "#7aa6d9"
	case KindTask:
		return "#8fc98f"
	case KindHDFSWrite:
		return "#c9a227"
	case KindRepair:
		return "#e0883a"
	case KindMigration:
		return "#b06fc9"
	case KindFault:
		return "#d9534f"
	default:
		return "#999999"
	}
}

// SVG renders the trace as a standalone SVG timeline. Lanes are ordered
// depth-first through the span hierarchy (children under parents, in ID
// order), so the document is deterministic for a deterministic trace.
func (t Trace) SVG() string {
	// Order lanes: depth-first from the roots, children sorted by ID.
	children := make(map[int][]Span)
	var ids []int
	for _, s := range t.Spans {
		children[s.Parent] = append(children[s.Parent], s)
		ids = append(ids, s.Parent)
	}
	sort.Ints(ids)
	for _, id := range ids {
		c := children[id]
		sort.Slice(c, func(i, j int) bool { return c[i].ID < c[j].ID })
	}
	type lane struct {
		span  Span
		depth int
	}
	var lanes []lane
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, s := range children[parent] {
			lanes = append(lanes, lane{span: s, depth: depth})
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)

	// Time range across spans and events.
	t0, t1 := 0.0, 1.0
	first := true
	grow := func(a, b float64) {
		if first {
			t0, t1, first = a, b, false
			return
		}
		if a < t0 {
			t0 = a
		}
		if b > t1 {
			t1 = b
		}
	}
	for _, l := range lanes {
		grow(l.span.Start, l.span.End)
	}
	for _, ev := range t.Events {
		grow(ev.T, ev.T)
	}
	if t1 <= t0 {
		t1 = t0 + 1
	}
	x := func(at float64) float64 {
		return svgLabelW + (at-t0)/(t1-t0)*svgPlotW
	}

	h := svgTopPad + len(lanes)*(svgLaneH+svgLaneGap) + svgBotPad
	w := svgLabelW + svgPlotW + 20
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", w, h)
	sb.WriteString(`<rect width="100%" height="100%" fill="#ffffff"/>` + "\n")
	fmt.Fprintf(&sb, `<text x="8" y="16" font-size="13">trace timeline — %d spans, %d events, t=[%s, %s]</text>`+"\n",
		len(lanes), len(t.Events), formatFloat(t0), formatFloat(t1))

	// Vertical gridlines every 10% of the range.
	for i := 0; i <= 10; i++ {
		gx := svgLabelW + float64(i)*svgPlotW/10
		fmt.Fprintf(&sb, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#e0e0e0"/>`+"\n",
			gx, svgTopPad-6, gx, h-svgBotPad)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%d" fill="#888888" font-size="9">%s</text>`+"\n",
			gx+2, svgTopPad-8, formatFloat(t0+float64(i)*(t1-t0)/10))
	}

	laneY := make(map[int]int, len(lanes))
	for i, l := range lanes {
		y := svgTopPad + i*(svgLaneH+svgLaneGap)
		laneY[l.span.ID] = y
		label := fmt.Sprintf("%s%s %s", strings.Repeat("· ", l.depth), l.span.Kind, l.span.Name)
		if len(label) > 42 {
			label = label[:41] + "…"
		}
		fmt.Fprintf(&sb, `<text x="8" y="%d">%s</text>`+"\n", y+svgLaneH-5, html.EscapeString(label))
		x0, x1 := x(l.span.Start), x(l.span.End)
		if x1-x0 < 2 {
			x1 = x0 + 2
		}
		fmt.Fprintf(&sb, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" rx="2"><title>%s</title></rect>`+"\n",
			x0, y, x1-x0, svgLaneH, spanColor(l.span.Kind),
			html.EscapeString(fmt.Sprintf("%s %s [%s, %s]", l.span.Kind, l.span.Name, formatFloat(l.span.Start), formatFloat(l.span.End))))
	}

	// Event ticks: on their span's lane, or along the top for top-level.
	for _, ev := range t.Events {
		y, ok := laneY[ev.Span]
		if !ok {
			y = svgTopPad - 6
		}
		ex := x(ev.T)
		fmt.Fprintf(&sb, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="%s" stroke-width="2"><title>%s</title></line>`+"\n",
			ex, y, ex, y+svgLaneH, spanColor(ev.Kind), html.EscapeString(fmt.Sprintf("%s @%s: %s", ev.Kind, formatFloat(ev.T), ev.Msg)))
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}
