package xen

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"vhadoop/internal/sim"
)

// TestIOStageAbortGolden crashes a VM in the middle of each kind of I/O
// stage and pins what follows: the error the waiter's Wait returns, the
// virtual time it returns at, the time the run ends and the bytes every
// link carried. An aborted stage's transfers still drain, so the end time
// and the link bytes show where the aborted work went. The values were
// recorded while every stage ran as its own process; a stage that runs
// otherwise must abort at the same instants with the same errors.
//
// The late row crashes the serving VM at the instant the relay's last
// latch fires, from an event drawn after that latch's: the stage's wake is
// already queued when the abort lands, and the abort still wins. The
// paused rows start a stage while its VM is paused for stop-and-copy: it
// waits for the resume, or fails when the crash opens the gate.
func TestIOStageAbortGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash string  // the VM that crashes: "src" or "dst"
		at    float64 // crash time; 0 crashes as the stage's last latch fires
		pause bool    // src is paused from 0 to 2
		run   func(p *sim.Proc, src, dst *VM) error
		want  string
	}{
		{"pipeline send", "dst", 0.3, false, func(p *sim.Proc, src, dst *VM) error {
			return src.SpawnStore(dst, 1, 100e6).Wait(p)
		}, "err=xen: virtual machine has crashed: dst wait=0.3 end=0.8405861344537815 links=[switch=1e+08 pm1.bridge=1e+08 pm1.tx=1e+08 pm1.nicproc=1e+08 pm2.bridge=1e+08 pm2.rx=1e+08 pm2.nicproc=1e+08]"},
		{"pipeline disk write", "dst", 1.5, false, func(p *sim.Proc, src, dst *VM) error {
			return src.SpawnStore(dst, 1, 100e6).Wait(p)
		}, "err=xen: virtual machine has crashed: dst wait=1.5 end=2.3405861344537815 links=[switch=2e+08 pm1.bridge=1e+08 pm1.tx=1e+08 pm1.nicproc=1e+08 pm2.bridge=1e+08 pm2.rx=1e+08 pm2.nicproc=1e+08 pm2.stor.tx=1e+08 filer.stor.rx=1e+08]"},
		{"read disk half", "src", 0.3, false, func(p *sim.Proc, src, dst *VM) error {
			return src.ReadAndSend(p, dst, 1, 100e6)
		}, "err=xen: virtual machine has crashed: src wait=0.3 end=1 links=[switch=2e+08 pm1.bridge=1e+08 pm1.tx=1e+08 pm1.nicproc=1e+08 pm1.stor.rx=1e+08 pm2.bridge=1e+08 pm2.rx=1e+08 pm2.nicproc=1e+08 filer.stor.tx=1e+08]"},
		{"read network half", "dst", 0.3, false, func(p *sim.Proc, src, dst *VM) error {
			return src.ReadAndSend(p, dst, 1, 100e6)
		}, "err=xen: virtual machine has crashed: dst wait=1 end=1 links=[switch=2e+08 pm1.bridge=1e+08 pm1.tx=1e+08 pm1.nicproc=1e+08 pm1.stor.rx=1e+08 pm2.bridge=1e+08 pm2.rx=1e+08 pm2.nicproc=1e+08 filer.stor.tx=1e+08]"},
		{"O_DIRECT relay", "dst", 0.3, false, func(p *sim.Proc, src, dst *VM) error {
			return src.SpawnRelay(dst, 100e6).Wait(p)
		}, "err=xen: virtual machine has crashed: dst wait=0.3 end=1 links=[switch=2e+08 pm1.bridge=1e+08 pm1.tx=1e+08 pm1.nicproc=1e+08 pm1.stor.rx=1e+08 pm2.bridge=1e+08 pm2.rx=1e+08 pm2.nicproc=1e+08 filer.stor.tx=1e+08]"},
		{"repair copy", "src", 0.3, false, func(p *sim.Proc, src, dst *VM) error {
			return src.SpawnStore(dst, 0, 100e6).Wait(p)
		}, "err=xen: virtual machine has crashed: src wait=0.3 end=0.8405861344537815 links=[switch=1e+08 pm1.bridge=1e+08 pm1.tx=1e+08 pm1.nicproc=1e+08 pm2.bridge=1e+08 pm2.rx=1e+08 pm2.nicproc=1e+08]"},
		{"shuffle fetch half", "dst", 0.5, false, func(p *sim.Proc, src, dst *VM) error {
			return src.ReadAndSend(p, dst, 0, 100e6)
		}, "err=xen: virtual machine has crashed: dst wait=1 end=1 links=[switch=2e+08 pm1.bridge=1e+08 pm1.tx=1e+08 pm1.nicproc=1e+08 pm1.stor.rx=1e+08 pm2.bridge=1e+08 pm2.rx=1e+08 pm2.nicproc=1e+08 filer.stor.tx=1e+08]"},
		{"O_DIRECT relay, late", "src", 0, false, func(p *sim.Proc, src, dst *VM) error {
			return src.SpawnRelay(dst, 100e6).Wait(p)
		}, "err=xen: virtual machine has crashed: src wait=1 end=1 links=[switch=2e+08 pm1.bridge=1e+08 pm1.tx=1e+08 pm1.nicproc=1e+08 pm1.stor.rx=1e+08 pm2.bridge=1e+08 pm2.rx=1e+08 pm2.nicproc=1e+08 filer.stor.tx=1e+08]"},
		{"pipeline send from a paused VM", "", 0, true, func(p *sim.Proc, src, dst *VM) error {
			return src.SpawnStore(dst, 1, 100e6).Wait(p)
		}, "err=<nil> wait=4.3405861344537815 end=4.3405861344537815 links=[switch=2e+08 pm1.bridge=1e+08 pm1.tx=1e+08 pm1.nicproc=1e+08 pm2.bridge=1e+08 pm2.rx=1e+08 pm2.nicproc=1e+08 pm2.stor.tx=1e+08 filer.stor.rx=1e+08]"},
		{"read, serving VM crashes while paused", "src", 1, true, func(p *sim.Proc, src, dst *VM) error {
			return src.ReadAndSend(p, dst, 1, 100e6)
		}, "err=xen: virtual machine has crashed: src wait=1 end=2 links=[]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			at := tc.at
			if at == 0 && tc.crash != "" {
				// A dry run finds the instant the stage completes.
				_, wait, _ := runAbortRow(tc.run, "", 0, tc.pause)
				at = wait
			}
			got, _, _ := runAbortRow(tc.run, tc.crash, at, tc.pause)
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// runAbortRow runs one stage from pm1's VM "src" to pm2's VM "dst", with
// the named VM crashing at the given time ("" for none) and src paused
// from 0 to 2 if pause is set, and renders the outcome. A crash is
// scheduled from an event at its time, so at the stage's own completion
// time its seq is drawn after the stage's last latch.
func runAbortRow(run func(p *sim.Proc, src, dst *VM) error, crash string, at float64, pause bool) (string, float64, float64) {
	e, topo, mgr := newTestbed(1)
	src := mgr.MustDefine("src", 1e9, topo.Machines()[0])
	dst := mgr.MustDefine("dst", 1e9, topo.Machines()[1])
	if pause {
		src.pause()
		e.At(2, func() {
			if src.State() == StatePaused {
				src.resume()
			}
		})
	}
	var err error
	var wait float64
	e.Spawn("waiter", func(p *sim.Proc) {
		err = run(p, src, dst)
		wait = p.Now()
	})
	victim := map[string]*VM{"src": src, "dst": dst}[crash]
	if victim != nil {
		e.At(at, func() { e.At(at, victim.Crash) })
	}
	end := e.Run()
	g := strconv.FormatFloat
	var b strings.Builder
	fmt.Fprintf(&b, "err=%v wait=%s end=%s links=[", err, g(wait, 'g', -1, 64), g(end, 'g', -1, 64))
	sep := ""
	for _, l := range topo.Fabric().Links() {
		if c := l.BytesCarried(); c != 0 {
			fmt.Fprintf(&b, "%s%s=%s", sep, l.Name(), g(c, 'g', -1, 64))
			sep = " "
		}
	}
	b.WriteString("]")
	return b.String(), wait, end
}
