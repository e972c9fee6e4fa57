package vhadoop_test

import (
	"encoding/json"
	"testing"

	"vhadoop/internal/faults/chaostest"
	"vhadoop/internal/jobsvc/backlog"
	"vhadoop/internal/obs"
)

// TestTraceJSONReencodes holds obs.Tracer.JSON to encoding/json on real
// traces from outside the package: the quick job-service backlog (mixed
// and uniform) and the seed-3 chaos run that `vhadoop -seed 3 chaos`
// exports. Each trace, decoded and re-encoded with json.MarshalIndent,
// must come back byte for byte.
func TestTraceJSONReencodes(t *testing.T) {
	type trace struct{ name, js string }
	var traces []trace
	for _, c := range []struct {
		name    string
		uniform bool
	}{{"backlog-mixed", false}, {"backlog-uniform", true}} {
		o := bigBacklog()
		o.Nodes, o.Seed, o.Tenants, o.Jobs, o.Uniform = 8, 1, 20, 200, c.uniform
		r, err := backlog.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		traces = append(traces, trace{c.name, r.Spans})
	}
	r, err := chaostest.Run(chaostest.Wordcount(), 3, chaostest.GenSchedule(3, 3, chaosHorizon))
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	traces = append(traces, trace{"chaos-seed3", r.TraceJSON})

	for _, tc := range traces {
		tr, err := obs.DecodeTrace([]byte(tc.js))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(tr.Spans) == 0 || len(tr.Events) == 0 {
			t.Fatalf("%s: %d spans, %d events: nothing was traced", tc.name, len(tr.Spans), len(tr.Events))
		}
		b, err := json.MarshalIndent(tr, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := string(b); got != tc.js {
			i := 0
			for i < len(got) && i < len(tc.js) && got[i] == tc.js[i] {
				i++
			}
			t.Fatalf("%s: trace differs from its re-encoding at byte %d of %d:\n%.200q\nre-encoded:\n%.200q",
				tc.name, i, len(tc.js), tc.js[i:], got[i:])
		}
	}
}
