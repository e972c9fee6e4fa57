package mapreduce

import (
	"slices"
	"strconv"
	"testing"
)

// TestHeartbeatIntervalChange changes HeartbeatInterval from 3 s to 5 s
// with Reconfigure at t = 10 and pins each tracker's sequence of lastHB
// values through t = 40. The bed's staging ends at t ≈ 2.04, where three
// trackers start; tracker 3 joins 1.25 s later, and tracker 1 is hung until
// t = 7.5, so its silent beats re-arm on their own. At the change, beats
// armed under the old interval are queued for t ≈ 11.04 and t ≈ 12.29:
// each still fires when it was due, and the next one is armed with the new
// interval. The sequences were recorded when each beat was armed with
// Engine.After. The run is stepped in quarter seconds, and no tracker's
// lastHB moves twice within one step.
func TestHeartbeatIntervalChange(t *testing.T) {
	c := newLocalityBed(t).c
	c.trackers[1].Hang(7.5)
	start := c.engine.Now()
	for _, tr := range c.trackers[:3] {
		c.StartTracker(tr)
	}
	c.engine.At(start, c.startMonitor)
	seen := make([][]string, len(c.trackers))
	joined := false
	for now := start; now < 40; now += 0.25 {
		if now >= start+1.5 && !joined {
			c.StartTracker(c.trackers[3]) // joins at the engine's now, start+1.25
			joined = true
		}
		if now >= 10 && c.cfg.HeartbeatInterval == 3 {
			cfg := c.cfg
			cfg.HeartbeatInterval = 5
			c.Reconfigure(cfg)
		}
		c.engine.RunUntil(now)
		for i, tr := range c.trackers {
			hb := strconv.FormatFloat(tr.lastHB, 'g', -1, 64)
			if n := len(seen[i]); n == 0 || seen[i][n-1] != hb {
				seen[i] = append(seen[i], hb)
			}
		}
	}
	c.Stop()
	c.engine.Run()
	want := [][]string{
		{"0", "5.0401005119999995", "8.040121024", "11.040141536", "16.040162048", "21.040182559999998", "26.040203071999997", "31.040223583999996", "36.040244095999995"},
		{"0", "8.040100512", "11.040121024000001", "16.040141536", "21.040162048", "26.040182559999998", "31.040203071999997", "36.040223583999996"},
		{"0", "5.0401005119999995", "8.040121024", "11.040141536", "16.040162048", "21.040182559999998", "26.040203071999997", "31.040223583999996", "36.040244095999995"},
		{"0", "6.2901005119999995", "9.290121024", "12.290141536", "17.290162048", "22.290182559999998", "27.290203071999997", "32.290223583999996", "37.290244095999995"},
	}
	for i, w := range want {
		if !slices.Equal(seen[i], w) {
			t.Errorf("tracker %d: lastHB %q, want %q", i, seen[i], w)
		}
	}
}
