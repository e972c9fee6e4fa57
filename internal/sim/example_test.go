package sim_test

import (
	"fmt"

	"vhadoop/internal/sim"
)

// Two processes contend for a processor-sharing disk: each sees half the
// bandwidth while both are active.
func Example() {
	e := sim.New(1)
	disk := sim.NewFairShare(e, "disk", 100, 0) // 100 units/s

	for _, name := range []string{"a", "b"} {
		name := name
		e.Spawn(name, func(p *sim.Proc) {
			disk.Use(p, 100) // 100 units of work
			fmt.Printf("%s done at t=%v\n", name, p.Now())
		})
	}
	e.Run()
	// Output:
	// a done at t=2
	// b done at t=2
}

// A Gate models a pausable component: work stalls while it is closed.
func ExampleGate() {
	e := sim.New(1)
	gate := sim.NewGate(e, true)
	e.Spawn("worker", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			gate.WaitOpen(p)
			p.Sleep(1)
		}
		fmt.Printf("finished at t=%v\n", p.Now())
	})
	e.At(0.5, func() { gate.Close() })
	e.At(3.5, func() { gate.Open() })
	e.Run()
	// Output:
	// finished at t=4.5
}

// Done latches coordinate processes: waiters block until the latch fires.
func ExampleDone() {
	e := sim.New(1)
	ready := sim.NewDone()
	e.Spawn("consumer", func(p *sim.Proc) {
		ready.Wait(p)
		fmt.Printf("consumed at t=%v\n", p.Now())
	})
	e.Spawn("producer", func(p *sim.Proc) {
		p.Sleep(3)
		ready.Fire()
	})
	e.Run()
	// Output:
	// consumed at t=3
}
