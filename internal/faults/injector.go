package faults

import (
	"fmt"

	"vhadoop/internal/core"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/obs"
	"vhadoop/internal/phys"
	"vhadoop/internal/vnet"
	"vhadoop/internal/xen"
)

// partitionFloor is the bandwidth a partitioned machine's links keep, in
// bytes/s. The fluid fabric cannot carry a true zero (active flows must
// drain), so a partition leaves a trickle — the same shape as TCP
// retransmissions crawling through a flapping link.
const partitionFloor = 1.0

// factorStack is one fault target's overlap bookkeeping: a machine's
// network links or the NFS filer's disk. Several overlapping faults may
// target it; set applies the effective factor, the most severe (minimum)
// active one, to the target.
type factorStack struct {
	name    string
	factors []float64 // active multipliers; a partition contributes 0
	set     func(eff float64)
}

// machineLinks scales every link of pm by the effective factor.
func machineLinks(pm *phys.Machine) *factorStack {
	links := []*vnet.Link{pm.Bridge, pm.NICTx, pm.NICRx, pm.NICProc, pm.StorTx, pm.StorRx}
	orig := make([]float64, len(links))
	for i, l := range links {
		orig[i] = l.Bandwidth()
	}
	return &factorStack{name: pm.Name, set: func(eff float64) {
		for i, l := range links {
			l.SetBandwidth(max(orig[i]*eff, partitionFloor))
		}
	}}
}

// filerDisk scales the NFS filer's disk capacity by the effective factor.
func filerDisk(pl *core.Platform) *factorStack {
	disk := pl.NFS.Disk()
	orig := disk.Capacity()
	return &factorStack{name: pl.NFS.Machine().Name, set: func(eff float64) {
		disk.SetCapacity(max(orig*eff, partitionFloor))
	}}
}

func (fs *factorStack) push(factor float64) {
	fs.factors = append(fs.factors, factor)
	fs.retune()
}

func (fs *factorStack) pop(factor float64) {
	for i, f := range fs.factors {
		if f == factor {
			fs.factors = append(fs.factors[:i], fs.factors[i+1:]...)
			fs.retune()
			return
		}
	}
	panic("faults: restoring a factor that was never applied on " + fs.name)
}

func (fs *factorStack) retune() {
	eff := 1.0
	for _, f := range fs.factors {
		eff = min(eff, f)
	}
	fs.set(eff)
}

// Injector arms fault schedules against a provisioned platform. Every
// fault fires as a simulation event at its scheduled virtual time and is
// recorded as an event in the span trace.
type Injector struct {
	pl *core.Platform

	byPM  map[string]*factorStack // lookup only; never iterated
	filer *factorStack
}

// NewInjector wires an injector to a platform.
func NewInjector(pl *core.Platform) *Injector {
	inj := &Injector{pl: pl, byPM: make(map[string]*factorStack), filer: filerDisk(pl)}
	for _, pm := range pl.Topo.Machines() {
		inj.byPM[pm.Name] = machineLinks(pm)
	}
	return inj
}

// note records one fault action as a typed event in the span trace.
func (inj *Injector) note(format string, args ...any) {
	inj.pl.Obs.Eventf(obs.KindFault, "fault: %s", fmt.Sprintf(format, args...))
}

// fired counts one injected fault and opens its span (zero-length for
// instantaneous kinds; the caller finishes longer ones at restore time).
func (inj *Injector) fired(f Fault) *obs.Span {
	pl := inj.pl.Obs
	if pl == nil {
		return nil
	}
	pl.Counter("faults_injected_total", "kind", string(f.Kind)).Inc()
	sp := pl.Start(obs.KindFault, string(f.Kind)+":"+f.Target, nil)
	if f.Factor != 0 {
		sp.SetFloat("factor", f.Factor)
	}
	if f.Duration != 0 {
		sp.SetFloat("duration", float64(f.Duration))
	}
	return sp
}

func (inj *Injector) vm(name string) (*xen.VM, error) {
	for _, vm := range inj.pl.VMs {
		if vm.Name == name {
			return vm, nil
		}
	}
	return nil, fmt.Errorf("faults: no VM named %q", name)
}

func (inj *Injector) tracker(name string) (*mapreduce.Tracker, error) {
	for _, tr := range inj.pl.MR.Trackers() {
		if tr.VM.Name == name {
			return tr, nil
		}
	}
	return nil, fmt.Errorf("faults: no tasktracker on a VM named %q", name)
}

func (inj *Injector) machine(name string) (*phys.Machine, error) {
	for _, pm := range inj.pl.Topo.Machines() {
		if pm.Name == name {
			return pm, nil
		}
	}
	return nil, fmt.Errorf("faults: no machine named %q", name)
}

// Install validates the schedule, resolves every target against the
// platform, and arms one engine event per fault action (transient kinds
// get a second event for the restore). Nothing is armed if any fault
// fails to resolve, so a bad schedule cannot half-fire.
func (inj *Injector) Install(s Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	arm := make([]func(), 0, len(s.Faults))
	for i, f := range s.Faults {
		a, err := inj.resolve(f)
		if err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
		arm = append(arm, a)
	}
	for _, a := range arm {
		a()
	}
	return nil
}

// resolve binds one fault to its target and returns the arming closure.
func (inj *Injector) resolve(f Fault) (func(), error) {
	e := inj.pl.Engine
	switch f.Kind {
	case KindVMCrash:
		vm, err := inj.vm(f.Target)
		if err != nil {
			return nil, err
		}
		return func() {
			e.At(f.At, func() {
				inj.note("vmcrash %s", vm.Name)
				inj.fired(f).Finish()
				vm.Crash()
			})
		}, nil
	case KindMachCrash:
		pm, err := inj.machine(f.Target)
		if err != nil {
			return nil, err
		}
		return func() {
			e.At(f.At, func() {
				crashed := inj.pl.Xen.CrashMachine(pm)
				inj.note("machcrash %s (%d VMs lost)", pm.Name, len(crashed))
				inj.fired(f).Finish()
			})
		}, nil
	case KindHang:
		tr, err := inj.tracker(f.Target)
		if err != nil {
			return nil, err
		}
		until := f.At + f.Duration
		return func() {
			var sp *obs.Span
			e.At(f.At, func() {
				inj.note("hang %s until %.2f", f.Target, until)
				sp = inj.fired(f)
				tr.Hang(until)
			})
			e.At(until, func() { sp.Finish() })
		}, nil
	case KindDegrade, KindPartition:
		sl, ok := inj.byPM[f.Target]
		if !ok {
			return nil, fmt.Errorf("faults: no machine named %q", f.Target)
		}
		factor := f.Factor // 0 for partition
		return func() {
			var sp *obs.Span
			e.At(f.At, func() {
				inj.note("%s %s factor %g for %.2fs", f.Kind, sl.name, factor, f.Duration)
				sp = inj.fired(f)
				sl.push(factor)
			})
			e.At(f.At+f.Duration, func() {
				inj.note("%s %s restored", f.Kind, sl.name)
				sp.Finish()
				sl.pop(factor)
			})
		}, nil
	case KindNFSStall:
		if f.Target != inj.filer.name {
			return nil, fmt.Errorf("faults: nfsstall target %q is not the filer (%s)", f.Target, inj.filer.name)
		}
		return func() {
			var sp *obs.Span
			e.At(f.At, func() {
				inj.note("nfsstall %s factor %g for %.2fs", inj.filer.name, f.Factor, f.Duration)
				sp = inj.fired(f)
				inj.filer.push(f.Factor)
			})
			e.At(f.At+f.Duration, func() {
				inj.note("nfsstall %s restored", inj.filer.name)
				sp.Finish()
				inj.filer.pop(f.Factor)
			})
		}, nil
	}
	return nil, fmt.Errorf("faults: unknown kind %q", string(f.Kind))
}
