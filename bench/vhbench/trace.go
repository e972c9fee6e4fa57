package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call the harness made into a layer. Times are host
// nanoseconds since the tracer started; Parent is an index into the same
// slice (-1 at the root) and Op numbers the workload iteration, -1 during
// set-up.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, which is how timed runs stay untraced.
//
// The simulation hands control between goroutines but only one runs at a
// time, so a span opened inside a driver closure nests under the span of the
// Platform.Run call that is parked around it, and one stack suffices.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Start: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
	return float64(s.End-s.Start) / 1e6
}

// selfTimes sums, per span name, the span's duration minus the part its
// children cover, in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for i, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return self
}

// write stores the spans and their self times as JSON at path.
func (t *tracer) write(path, workload string) error {
	doc := struct {
		Workload string             `json:"workload"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, t.selfTimes(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// layers accumulates what one traced batch observed at the span boundaries:
// counter sums and host-time samples, keyed by the harness's own names.
// A nil *layers ignores everything.
type layers struct {
	sum     map[string]float64
	samples map[string][]float64
}

func newLayers() *layers {
	return &layers{sum: make(map[string]float64), samples: make(map[string][]float64)}
}

func (l *layers) add(name string, v float64) {
	if l != nil {
		l.sum[name] += v
	}
}

func (l *layers) sample(name string, v float64) {
	if l != nil {
		l.samples[name] = append(l.samples[name], v)
	}
}

// total sums the samples recorded under name.
func (l *layers) total(name string) float64 {
	var s float64
	for _, v := range l.samples[name] {
		s += v
	}
	return s
}
