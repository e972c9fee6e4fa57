package sim

import (
	"testing"
	"testing/quick"
)

func TestFairShareSingleJob(t *testing.T) {
	e := New(1)
	fs := NewFairShare(e, "disk", 100, 0)
	var done Time
	e.Spawn("w", func(p *Proc) {
		fs.Use(p, 500)
		done = p.Now()
	})
	e.Run()
	almost(t, done, 5, 1e-9, "500 work at 100/s")
}

func TestFairShareSetCapacityMidJob(t *testing.T) {
	// 1000 work at 100/s; at t=5 (500 served) the device stalls to 10/s,
	// so the remaining 500 takes 50 more seconds.
	e := New(1)
	fs := NewFairShare(e, "disk", 100, 0)
	e.At(5, func() { fs.SetCapacity(10) })
	var done Time
	e.Spawn("w", func(p *Proc) {
		fs.Use(p, 1000)
		done = p.Now()
	})
	e.Run()
	almost(t, done, 55, 1e-6, "stalled device slows the tail")
	almost(t, fs.Served(), 1000, 1e-6, "work conserved across retune")
}

func TestFairShareSetCapacityRejectsNonPositive(t *testing.T) {
	e := New(1)
	fs := NewFairShare(e, "disk", 100, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("SetCapacity(0) did not panic")
		}
	}()
	fs.SetCapacity(0)
}

func TestFairShareTwoJobsShareEqually(t *testing.T) {
	e := New(1)
	fs := NewFairShare(e, "disk", 100, 0)
	var d1, d2 Time
	e.Spawn("a", func(p *Proc) { fs.Use(p, 100); d1 = p.Now() })
	e.Spawn("b", func(p *Proc) { fs.Use(p, 100); d2 = p.Now() })
	e.Run()
	// Both run at 50/s while together: each 100 units takes 2s.
	almost(t, d1, 2, 1e-9, "job a")
	almost(t, d2, 2, 1e-9, "job b")
}

func TestFairShareShorterJobFreesCapacity(t *testing.T) {
	e := New(1)
	fs := NewFairShare(e, "disk", 100, 0)
	var dShort, dLong Time
	e.Spawn("short", func(p *Proc) { fs.Use(p, 50); dShort = p.Now() })
	e.Spawn("long", func(p *Proc) { fs.Use(p, 150); dLong = p.Now() })
	e.Run()
	// Shared phase: both at 50/s; short finishes at t=1 with long at 100 left,
	// which then runs at 100/s, finishing at t=2.
	almost(t, dShort, 1, 1e-9, "short job")
	almost(t, dLong, 2, 1e-9, "long job")
}

func TestFairSharePerJobCap(t *testing.T) {
	e := New(1)
	// 8-core CPU pool with 1-core cap per VCPU: a single job cannot exceed 1.
	fs := NewFairShare(e, "cpu", 8, 1)
	var done Time
	e.Spawn("vcpu", func(p *Proc) { fs.Use(p, 10); done = p.Now() })
	e.Run()
	almost(t, done, 10, 1e-9, "capped single job")
}

func TestFairShareCapRedistribution(t *testing.T) {
	e := New(1)
	// Capacity 10, cap 4: three jobs -> equal share 3.33 < cap, all at 3.33.
	// Two jobs -> share 5 > cap, both at 4 (surplus unusable).
	fs := NewFairShare(e, "r", 10, 4)
	var d1, d2 Time
	e.Spawn("a", func(p *Proc) { fs.Use(p, 8); d1 = p.Now() })
	e.Spawn("b", func(p *Proc) { fs.Use(p, 8); d2 = p.Now() })
	e.Run()
	almost(t, d1, 2, 1e-9, "capped pair a")
	almost(t, d2, 2, 1e-9, "capped pair b")
}

func TestFairShareOversubscriptionSlowdown(t *testing.T) {
	// 16 VCPUs on 8 cores must take twice as long as 8 VCPUs on 8 cores —
	// the normal-vs-cross-domain CPU effect in the paper's testbed.
	elapsed := func(nJobs int) Time {
		e := New(1)
		fs := NewFairShare(e, "cpu", 8, 1)
		var last Time
		for i := 0; i < nJobs; i++ {
			e.Spawn("vcpu", func(p *Proc) {
				fs.Use(p, 10)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run()
		return last
	}
	t8, t16 := elapsed(8), elapsed(16)
	almost(t, t8, 10, 1e-9, "8 on 8")
	almost(t, t16, 20, 1e-9, "16 on 8")
}

func TestFairShareUtilizationAccounting(t *testing.T) {
	e := New(1)
	fs := NewFairShare(e, "r", 100, 0)
	e.Spawn("w", func(p *Proc) {
		fs.Use(p, 500) // busy 0..5 at full rate
		p.Sleep(5)     // idle 5..10
	})
	e.Run()
	almost(t, fs.MeanUtilization(), 0.5, 1e-9, "mean utilisation")
	almost(t, fs.Served(), 500, 1e-6, "served work")
	if fs.Load() != 0 {
		t.Fatalf("load = %d after completion", fs.Load())
	}
}

// Begin may enqueue work from engine context; a process ends the job.
func TestFairShareSubmitFromEngineContext(t *testing.T) {
	e := New(1)
	fs := NewFairShare(e, "r", 10, 0)
	j := fs.Begin(100)
	var at Time
	e.Spawn("w", func(p *Proc) { fs.End(p, j); at = p.Now() })
	e.Run()
	almost(t, at, 10, 1e-9, "submit completion")
}

// Property: for any set of job sizes, total served work equals total
// submitted work and every job completes no earlier than its ideal
// (uncontended) finish time.
func TestFairShareConservationProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		jobs := make([]float64, 0, len(sizes))
		var total float64
		for _, s := range sizes {
			if len(jobs) == 12 {
				break
			}
			w := float64(s%1000) + 1
			jobs = append(jobs, w)
			total += w
		}
		if len(jobs) == 0 {
			return true
		}
		e := New(7)
		fs := NewFairShare(e, "r", 50, 0)
		ok := true
		for _, w := range jobs {
			w := w
			e.Spawn("j", func(p *Proc) {
				fs.Use(p, w)
				if p.Now() < w/50-1e-6 { // faster than uncontended is impossible
					ok = false
				}
			})
		}
		e.Run()
		served := fs.Served()
		return ok && served > total-1e-3 && served < total+1e-3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A retune changes the capacity the busy integral is measured against from
// then on, not for the whole history: a device that ran full before and
// after a degrade was fully utilised throughout.
func TestFairShareMeanUtilizationAfterRetune(t *testing.T) {
	e := New(1)
	fs := NewFairShare(e, "disk", 100, 0)
	fs.Begin(2000) // 1000 by t=10 at 100/s, then 1/s
	var atDegrade, later float64
	e.At(10, func() {
		fs.SetCapacity(1)
		atDegrade = fs.MeanUtilization()
	})
	e.At(20, func() { later = fs.MeanUtilization() })
	e.RunUntil(20)
	almost(t, atDegrade, 1, 1e-9, "mean utilisation right after the degrade")
	almost(t, later, 1, 1e-9, "mean utilisation at t=20")
}
