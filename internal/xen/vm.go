// Package xen models the virtualization layer of vHadoop: virtual machines
// scheduled by a Xen-style credit scheduler, with their images on an NFS
// filer, and pre-copy live migration between physical machines.
package xen

import (
	"errors"
	"fmt"

	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
)

// ErrVMDead aborts a process that touches a crashed VM.
var ErrVMDead = errors.New("xen: virtual machine has crashed")

// ErrVMStopped aborts a process that touches a cleanly shut-down VM.
var ErrVMStopped = errors.New("xen: virtual machine was shut down")

// VMState is the lifecycle state of a virtual machine.
type VMState int

// VM lifecycle states.
const (
	StateDefined VMState = iota
	StateRunning
	StatePaused // stop-and-copy phase of live migration
	StateCrashed
	StateShutdown // cleanly released (cloud lease teardown, scale-in)
)

func (s VMState) String() string {
	switch s {
	case StateDefined:
		return "defined"
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateCrashed:
		return "crashed"
	case StateShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("VMState(%d)", int(s))
}

// VM is a virtual machine: 1 VCPU plus a fixed memory reservation, with its
// virtual disk backed by the NFS filer.
type VM struct {
	Name     string
	MemBytes float64

	mgr   *Manager
	host  *phys.Machine
	gate  *sim.Gate  // closed while paused
	vcpu  *sim.Queue // the single VCPU: co-resident tasks serialise on it
	state VMState

	extraDirty float64   // page-dirty rate contributed by running activity
	inflight   []watcher // I/O operations in flight touching this VM

	// cumulative counters, read by the nmon monitor
	cpuUsed    float64 // core-seconds executed
	diskRead   float64
	diskWrite  float64
	netSent    float64
	netRecv    float64
	migrations int
}

// Host returns the physical machine currently hosting the VM.
func (vm *VM) Host() *phys.Machine { return vm.host }

// Engine returns the simulation engine the VM lives in.
func (vm *VM) Engine() *sim.Engine { return vm.mgr.engine }

// State returns the VM lifecycle state.
func (vm *VM) State() VMState { return vm.state }

// Migrations returns how many times this VM has been live-migrated. Only
// tests read it: TestMigrationIdle and TestMigrationChainRoundTrip count
// the completed migrations.
func (vm *VM) Migrations() int { return vm.migrations }

// CPUUsed returns cumulative core-seconds executed by the VCPU.
func (vm *VM) CPUUsed() float64 { return vm.cpuUsed }

// DiskRead and DiskWrite return cumulative VM virtual-disk traffic in bytes.
func (vm *VM) DiskRead() float64  { return vm.diskRead }
func (vm *VM) DiskWrite() float64 { return vm.diskWrite }

// NetSent and NetRecv return cumulative VM network traffic in bytes.
func (vm *VM) NetSent() float64 { return vm.netSent }
func (vm *VM) NetRecv() float64 { return vm.netRecv }

func (vm *VM) String() string { return vm.Name + "@" + vm.host.Name }

// checkAlive aborts the calling process if the VM has crashed or was shut
// down.
func (vm *VM) checkAlive(p *sim.Proc) {
	if err := vm.downErr(); err != nil {
		p.Fail(err)
	}
}

// downErr returns the error an operation on the VM fails with once it has
// crashed or been shut down, and nil while it lives.
func (vm *VM) downErr() error {
	switch vm.state {
	case StateCrashed:
		return fmt.Errorf("%w: %s", ErrVMDead, vm.Name)
	case StateShutdown:
		return fmt.Errorf("%w: %s", ErrVMStopped, vm.Name)
	}
	return nil
}

// watcher is what a crash of a VM aborts while an I/O operation on the VM
// is in flight: the process that drives the operation, or the operation's
// own chain record.
type watcher struct {
	proc *sim.Proc
	io   *IOProc
}

// abort aborts w's process or record with err.
func (w watcher) abort(err error) {
	if w.proc != nil {
		w.proc.Abort(err)
	} else {
		w.io.abort(err)
	}
}

// watch registers w as inside a bulk I/O operation touching this VM, so
// that Crash/Shutdown can abort it immediately — the severed TCP stream or
// vanished virtual disk a real endpoint failure produces — rather than
// letting the transfer complete and the death go unnoticed until the next
// operation. The operation unwatches when it ends, also when the abort
// itself ends it. Exec and Message are not watched: their blocking spans
// are bounded by the scheduling quantum and sub-millisecond RPC times, so
// the entry/exit checkAlive already observes death promptly.
func (vm *VM) watch(w watcher) { vm.inflight = append(vm.inflight, w) }

// unwatch removes w from the in-flight set; a no-op if already aborted out.
func (vm *VM) unwatch(w watcher) {
	for i, q := range vm.inflight {
		if q == w {
			vm.inflight = append(vm.inflight[:i], vm.inflight[i+1:]...)
			return
		}
	}
}

// abortInflight aborts every operation in flight on this VM, in
// registration order (deterministic wakeup order).
func (vm *VM) abortInflight(cause error) {
	ws := vm.inflight
	vm.inflight = nil
	for _, w := range ws {
		w.abort(fmt.Errorf("%w: %s", cause, vm.Name))
	}
}

// Exec runs cpuSeconds of VCPU work. The VM has a single VCPU, so
// co-resident tasks time-slice on it quantum by quantum; across VMs the Xen
// credit scheduler (the host CPU fair-share) stretches quanta when VCPUs
// outnumber cores. Execution stalls while the VM is paused (live migration
// stop-and-copy) and aborts the process if the VM crashes.
func (vm *VM) Exec(p *sim.Proc, cpuSeconds float64) {
	for remaining := cpuSeconds; remaining > 0; {
		vm.checkAlive(p)
		vm.gate.WaitOpen(p)
		vm.checkAlive(p)
		step := cpuQuantum
		if step > remaining {
			step = remaining
		}
		vm.vcpu.Acquire(p, 1)
		func() {
			defer vm.vcpu.Release(1) // released even if the process aborts
			vm.checkAlive(p)
			vm.host.CPU.Use(p, step)
		}()
		vm.cpuUsed += step
		remaining -= step
	}
}

// ReadDisk reads bytes from the VM's NFS-backed virtual disk as process p,
// bypassing the dom0 page cache (scratch data that is written and read
// once).
func (vm *VM) ReadDisk(p *sim.Proc, bytes float64) {
	o := newIO(ioRead, vm, nil, 0, bytes)
	o.run(p)
}

// WriteDisk writes bytes to the VM's NFS-backed virtual disk as process p
// (uncached scratch data): write-through to the filer, as NFS close-to-open
// consistency flushes on close.
func (vm *VM) WriteDisk(p *sim.Proc, bytes float64) {
	o := newIO(ioWrite, vm, nil, 0, bytes)
	o.run(p)
}

// Message sends a small control RPC to dst (latency-dominated, does not
// contend with bulk flows). Loopback costs nothing.
func (vm *VM) Message(p *sim.Proc, dst *VM, bytes float64) {
	if dst == vm {
		return
	}
	vm.checkAlive(p)
	vm.gate.WaitOpen(p)
	d, err := vm.MessageDelay(dst, bytes)
	if err != nil {
		p.Fail(err)
	}
	p.Sleep(d)
}

// MessageDelay is Message's wire time for code that is not a process: how
// long a control RPC of the given size from vm to dst takes, or the error
// Message fails with when dst is down. It neither checks vm nor waits out
// its pause (see UnpausedOr), and it does not special-case loopback.
func (vm *VM) MessageDelay(dst *VM, bytes float64) (sim.Time, error) {
	if err := dst.downErr(); err != nil {
		return 0, err
	}
	topo := vm.mgr.topo
	return topo.Fabric().MessageDelay(topo.Path(vm.host, dst.host), bytes), nil
}

// UnpausedOr is the pause wait of Message for code that is not a process.
// It reports whether the VM's VCPU gate is open; while the VM is paused for
// stop-and-copy it queues fn instead, to run when the gate reopens. The VM
// may pause again before fn runs, so fn calls UnpausedOr again first.
func (vm *VM) UnpausedOr(fn func()) bool { return vm.gate.OpenOr(fn) }

// AddActivity registers extra page-dirtying activity (bytes/s), typically
// for the lifetime of a running task; it feeds the migration working-set
// model. Pair with RemoveActivity.
func (vm *VM) AddActivity(dirtyRate float64) { vm.extraDirty += dirtyRate }

// RemoveActivity unregisters page-dirtying activity.
func (vm *VM) RemoveActivity(dirtyRate float64) {
	vm.extraDirty -= dirtyRate
	if vm.extraDirty < -1e-9 {
		panic("xen: activity over-removed on " + vm.Name)
	}
	if vm.extraDirty < 0 {
		vm.extraDirty = 0
	}
}

// DirtyRate returns the current page-dirty rate in bytes/s: an idle baseline
// (guest OS housekeeping) plus registered task activity, capped so the
// working set cannot exceed memory itself per unit time.
func (vm *VM) DirtyRate() float64 {
	return idleDirtyRate + vm.extraDirty
}

// Crash marks the VM dead. Blocked and future operations on it abort their
// processes with ErrVMDead — including I/O operations mid-transfer, whether
// a process or a chain record drives them; the memory reservation is
// released. The underlying fabric
// flows of aborted transfers drain to completion unobserved (the fluid model
// has no mid-flow cancel), a brief ghost of bandwidth a real failed TCP
// stream also occupies until timeouts fire.
func (vm *VM) Crash() {
	if vm.state == StateCrashed || vm.state == StateShutdown {
		return
	}
	vm.state = StateCrashed
	vm.host.ReleaseMem(vm.MemBytes)
	if i := vm.mgr.instr; i != nil {
		i.vmCrashes.Inc()
	}
	// Wake anything parked on the pause gate so it observes the crash.
	vm.gate.Open()
	vm.abortInflight(ErrVMDead)
}

// Shutdown releases the VM cleanly (cloud lease teardown): the memory
// reservation returns to the host and any late or in-flight operations
// abort their processes with ErrVMStopped.
func (vm *VM) Shutdown() {
	if vm.state == StateCrashed || vm.state == StateShutdown {
		return
	}
	vm.state = StateShutdown
	vm.host.ReleaseMem(vm.MemBytes)
	vm.gate.Open()
	vm.abortInflight(ErrVMStopped)
}

// pause closes the VCPU gate (stop-and-copy).
func (vm *VM) pause() {
	vm.state = StatePaused
	vm.gate.Close()
}

// resume reopens the VCPU gate after migration.
func (vm *VM) resume() {
	vm.state = StateRunning
	vm.gate.Open()
}
