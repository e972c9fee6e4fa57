package xen

import (
	"testing"

	"vhadoop/internal/sim"
)

// TestIOStagesOwnNoProcess gates the I/O stages: a block's two-node
// pipeline, a block read's disk and network halves, an O_DIRECT relay and
// a shuffle fetch's two halves all advance from latch and gate callbacks,
// so while they are in flight the engine's only live processes are the
// four drivers that wait on them.
func TestIOStagesOwnNoProcess(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	pm1, pm2 := topo.Machines()[0], topo.Machines()[1]
	a := mgr.MustDefine("a", 1e9, pm1)
	b := mgr.MustDefine("b", 1e9, pm2)
	c := mgr.MustDefine("c", 1e9, pm1)
	drivers := []struct {
		name string
		run  func(p *sim.Proc) error
	}{
		{"pipeline", func(p *sim.Proc) error {
			first := a.SpawnStore(b, 1, 64e6)
			second := b.SpawnStore(c, 1, 64e6)
			err := first.Wait(p)
			if serr := second.Wait(p); err == nil {
				err = serr
			}
			return err
		}},
		{"read", func(p *sim.Proc) error {
			return b.ReadAndSend(p, a, 2, 64e6)
		}},
		{"relay", func(p *sim.Proc) error {
			return c.SpawnRelay(b, 64e6).Wait(p)
		}},
		{"shuffle", func(p *sim.Proc) error {
			return a.ReadAndSend(p, c, 0, 64e6)
		}},
	}
	for _, d := range drivers {
		e.Spawn(d.name, func(p *sim.Proc) {
			if err := d.run(p); err != nil {
				t.Errorf("%s: %v", d.name, err)
			}
		})
	}
	started := e.LiveProcs()
	inFlight := -1
	e.At(0.1, func() { inFlight = e.LiveProcs() })
	e.Run()
	if started != len(drivers) || inFlight != started {
		t.Fatalf("%d live processes with every stage in flight, %d before the stages started; want %d, the drivers alone",
			inFlight, started, len(drivers))
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%d live processes after the run, want 0", n)
	}
}
