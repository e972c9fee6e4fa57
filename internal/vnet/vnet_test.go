package vnet

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"vhadoop/internal/sim"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func TestSingleFlowFullBandwidth(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	l := f.NewLink("nic", 100e6, 0)
	var done sim.Time
	e.Spawn("x", func(p *sim.Proc) {
		f.Transfer(p, "t", f.NewRoute(l), 500e6)
		done = p.Now()
	})
	e.Run()
	almost(t, done, 5, 1e-9, "500 MB over 100 MB/s")
}

func TestLatencyAddsToCompletion(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	a := f.NewLink("a", 100e6, 0.001)
	b := f.NewLink("b", 100e6, 0.002)
	var done sim.Time
	e.Spawn("x", func(p *sim.Proc) {
		f.Transfer(p, "t", f.NewRoute(a, b), 100e6)
		done = p.Now()
	})
	e.Run()
	almost(t, done, 1.003, 1e-9, "transfer plus path latency")
}

func TestSetBandwidthRetunesMidFlow(t *testing.T) {
	// 1000 MB over 100 MB/s; at t=5 (500 MB moved) the link degrades to
	// 50 MB/s, so the remaining 500 MB takes 10 more seconds.
	e := sim.New(1)
	f := NewFabric(e)
	l := f.NewLink("nic", 100e6, 0)
	e.At(5, func() { l.SetBandwidth(50e6) })
	var done sim.Time
	e.Spawn("x", func(p *sim.Proc) {
		f.Transfer(p, "t", f.NewRoute(l), 1000e6)
		done = p.Now()
	})
	e.Run()
	almost(t, done, 15, 1e-6, "degraded link halves the tail rate")
}

func TestSetBandwidthRestore(t *testing.T) {
	// Degrade to a crawl and restore: 100 MB at 100 MB/s would take 1s;
	// crawling at 1 MB/s between t=0.5 and t=1.5 moves only 1 MB, the rest
	// finishes at full rate after restoration.
	e := sim.New(1)
	f := NewFabric(e)
	l := f.NewLink("nic", 100e6, 0)
	e.At(0.5, func() { l.SetBandwidth(1e6) })
	e.At(1.5, func() { l.SetBandwidth(100e6) })
	var done sim.Time
	e.Spawn("x", func(p *sim.Proc) {
		f.Transfer(p, "t", f.NewRoute(l), 100e6)
		done = p.Now()
	})
	e.Run()
	// 50 MB by 0.5s, 1 MB by 1.5s, remaining 49 MB in 0.49s.
	almost(t, done, 1.99, 1e-6, "restored link resumes full rate")
}

func TestSetBandwidthRejectsNonPositive(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	l := f.NewLink("nic", 100e6, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("SetBandwidth(0) did not panic")
		}
	}()
	l.SetBandwidth(0)
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	l := f.NewLink("nic", 100e6, 0)
	var d1, d2 sim.Time
	e.Spawn("a", func(p *sim.Proc) { f.Transfer(p, "a", f.NewRoute(l), 100e6); d1 = p.Now() })
	e.Spawn("b", func(p *sim.Proc) { f.Transfer(p, "b", f.NewRoute(l), 100e6); d2 = p.Now() })
	e.Run()
	almost(t, d1, 2, 1e-9, "flow a at half rate")
	almost(t, d2, 2, 1e-9, "flow b at half rate")
}

func TestMaxMinWaterFilling(t *testing.T) {
	// Classic parking-lot: flows A (link1 only) and B (link1+link2), link2 is
	// narrow. B is limited by link2, A picks up the slack on link1.
	e := sim.New(1)
	f := NewFabric(e)
	l1 := f.NewLink("wide", 100e6, 0)
	l2 := f.NewLink("narrow", 20e6, 0)
	var doneA, doneB sim.Time
	e.Spawn("a", func(p *sim.Proc) { f.Transfer(p, "a", f.NewRoute(l1), 1e9); doneA = p.Now() })
	e.Spawn("b", func(p *sim.Proc) { f.Transfer(p, "b", f.NewRoute(l1, l2), 1e9); doneB = p.Now() })
	e.Run()
	// B runs at 20 MB/s throughout; A gets the other 80 MB/s of the wide
	// link.
	almost(t, doneB, 50, 1e-6, "B limited by the narrow link")
	almost(t, doneA, 12.5, 1e-6, "A gets the residual of the wide link")
}

func TestFlowCompletionFreesBandwidth(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	l := f.NewLink("nic", 100e6, 0)
	var dShort, dLong sim.Time
	e.Spawn("short", func(p *sim.Proc) { f.Transfer(p, "s", f.NewRoute(l), 50e6); dShort = p.Now() })
	e.Spawn("long", func(p *sim.Proc) { f.Transfer(p, "l", f.NewRoute(l), 150e6); dLong = p.Now() })
	e.Run()
	almost(t, dShort, 1, 1e-9, "short flow")
	almost(t, dLong, 2, 1e-9, "long flow accelerates after short completes")
}

func TestZeroByteFlowIsLatencyOnly(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	l := f.NewLink("nic", 100e6, 0.005)
	var done sim.Time
	e.Spawn("x", func(p *sim.Proc) {
		f.Transfer(p, "ping", f.NewRoute(l), 0)
		done = p.Now()
	})
	e.Run()
	almost(t, done, 0.005, 1e-12, "zero-byte flow")
}

func TestMessageDoesNotContend(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	l := f.NewLink("nic", 100e6, 0.001)
	e.Spawn("bulk", func(p *sim.Proc) { f.Transfer(p, "bulk", f.NewRoute(l), 1e9) })
	var msgDone sim.Time
	e.Spawn("hb", func(p *sim.Proc) {
		p.Sleep(f.MessageDelay(f.NewRoute(l), 1000))
		msgDone = p.Now()
	})
	e.Run()
	almost(t, msgDone, 0.001+1000/100e6, 1e-12, "message latency unaffected by bulk flow")
}

func TestLinkAccounting(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	l := f.NewLink("nic", 100e6, 0)
	e.Spawn("x", func(p *sim.Proc) {
		f.Transfer(p, "t", f.NewRoute(l), 100e6) // busy 0..1
		p.Sleep(1)                               // idle 1..2
	})
	e.Run()
	almost(t, l.BytesCarried(), 100e6, 1, "bytes carried")
	almost(t, l.MeanUtilization(), 0.5, 1e-9, "mean utilisation")
	if f.ActiveFlows() != 0 {
		t.Fatalf("active flows = %d at end", f.ActiveFlows())
	}
}

// Property: with any number of equal flows on one link, aggregate throughput
// equals link capacity and per-flow completion time scales linearly.
func TestFairShareScalingProperty(t *testing.T) {
	prop := func(nRaw uint8) bool {
		n := int(nRaw%8) + 1
		e := sim.New(3)
		f := NewFabric(e)
		l := f.NewLink("nic", 50e6, 0)
		size := 25e6
		var last sim.Time
		for i := 0; i < n; i++ {
			e.Spawn("fl", func(p *sim.Proc) {
				f.Transfer(p, "t", f.NewRoute(l), size)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run()
		want := size * float64(n) / 50e6
		return math.Abs(last-want) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: max-min allocation never oversubscribes any link.
func TestNoLinkOversubscriptionProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 2
		e := sim.New(seed)
		f := NewFabric(e)
		links := []*Link{
			f.NewLink("l0", 10e6, 0),
			f.NewLink("l1", 25e6, 0),
			f.NewLink("l2", 100e6, 0),
		}
		for i := 0; i < n; i++ {
			path := []*Link{links[e.Rand().Intn(3)], links[e.Rand().Intn(3)]}
			if path[0] == path[1] {
				path = path[:1]
			}
			r, bytes := f.NewRoute(path...), 1e6+e.Rand().Float64()*20e6
			e.Spawn("flow", func(p *sim.Proc) { f.Transfer(p, "t", r, bytes) })
		}
		ok := true
		e.Spawn("check", func(p *sim.Proc) {
			for f.ActiveFlows() > 0 {
				for _, l := range links {
					if l.Utilization() > 1+1e-9 {
						ok = false
					}
				}
				p.Sleep(0.05)
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// A retune changes the bandwidth the busy integral is measured against from
// then on, not for the whole history: a link that ran full before and after
// a degrade was fully utilised throughout.
func TestMeanUtilizationAfterSetBandwidth(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	l := f.NewLink("nic", 100, 0)
	e.Spawn("x", func(p *sim.Proc) {
		f.Transfer(p, "t", f.NewRoute(l), 2000) // 1000 B by t=10 at 100 B/s, then 1 B/s
	})
	var atDegrade, later float64
	e.At(10, func() {
		l.SetBandwidth(1)
		atDegrade = l.MeanUtilization()
	})
	e.At(20, func() { later = l.MeanUtilization() })
	e.RunUntil(20)
	e.Shutdown()
	almost(t, atDegrade, 1, 1e-9, "mean utilisation right after the degrade")
	almost(t, later, 1, 1e-9, "mean utilisation at t=20")
}

// A transfer over a route built once allocates nothing: no path walk, no
// index slice, no completion closure, and its flow (the solver activity and
// the latch in one object) comes back off the fabric's free list.
func TestTransferOverRouteAllocs(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	r := f.NewRoute(f.NewLink("a", 20e6, 0.25), f.NewLink("b", 10e6, 0.25))
	e.Spawn("sender", func(p *sim.Proc) {
		for {
			f.Transfer(p, "t", r, 5e6) // 0.5 s on the wire, 0.5 s of latency
		}
	})
	step := func() { e.RunUntil(e.Now() + 1) }
	for i := 0; i < 10; i++ {
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("Transfer over a route: %v allocs per flow, want 0", n)
	}
	if got, want := f.FlowsStarted(), 10+101+1; got != want {
		t.Fatalf("started %d flows, want %d", got, want)
	}
	e.Shutdown()
}

// TestAbortDuringTransferIsNotRecycled aborts a process in the middle of a
// Transfer: its flow must stay in the fabric and drain, and the next
// Transfer must start a flow of its own beside it. Reusing the orphan
// while it is in service would panic in MaxMin.Start.
func TestAbortDuringTransferIsNotRecycled(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	r := f.NewRoute(f.NewLink("a", 10e6, 0))
	errAbort := errors.New("aborted")
	victim := e.Spawn("victim", func(p *sim.Proc) {
		f.Transfer(p, "v", r, 40e6)
		t.Error("aborted Transfer returned")
	})
	e.At(1, func() { victim.Abort(errAbort) })
	var next, third sim.Time = -1, -1
	e.Spawn("next", func(p *sim.Proc) {
		p.Sleep(2) // the victim has unwound; its orphan has 20 MB left
		// Both share the link, so this 10 MB is done at 4 and the
		// orphan's last 10 MB at 5.
		f.Transfer(p, "n", r, 10e6)
		next = p.Now()
		p.Sleep(2)
		f.Transfer(p, "n", r, 20e6) // reuses the flow the previous Transfer returned
		third = p.Now()
	})
	var flowsAt45 int
	e.At(4.5, func() { flowsAt45 = f.ActiveFlows() })
	e.Run()
	if victim.Err() != errAbort {
		t.Fatalf("victim err = %v, want the abort", victim.Err())
	}
	almost(t, next, 4, 1e-9, "transfer beside the orphan")
	if flowsAt45 != 1 {
		t.Fatalf("%d flows at 4.5, want the orphan alone", flowsAt45)
	}
	almost(t, third, 8, 1e-9, "recycled flow after the orphan drained")
	if got := f.FlowsStarted(); got != 3 {
		t.Fatalf("started %d flows, want 3", got)
	}
}
