package xen

import "vhadoop/internal/sim"

// IOProc is a process running one bulk I/O operation of a VM, for callers
// that overlap several and then wait on each: an HDFS pipeline stage, a
// block read's disk and network halves, a shuffle fetch's. Its record (the
// operation's arguments, the process record itself and the body bound to
// them once, as a method value) comes from the Manager's free list, so
// spawning one allocates nothing once the list is warm. Wait puts the
// record back only when its process ended cleanly (sim.Proc.Reusable); a
// failed or aborted one is dropped, because the latch or solver job it was
// parked on may still name it and must never wake a later process. A
// caller aborted or killed inside Wait unwinds past that point, so the
// record is never reused: the process it names runs on unobserved, as a
// bare Spawn's would.
type IOProc struct {
	mgr   *Manager
	op    ioOp
	src   *VM
	dst   *VM
	key   string
	bytes float64
	proc  sim.Proc
	body  func(*sim.Proc) // run, bound once
	next  *IOProc         // free-list link, set only while on the list
}

type ioOp uint8

const (
	ioRead  ioOp = iota // src.ReadDiskTagged(key)
	ioSend              // src.SendTo(dst)
	ioStore             // src.SendTo(dst), then dst.WriteDiskTagged(key)
	ioRelay             // src.ReadFromDiskTo(dst)
)

func (r *IOProc) run(p *sim.Proc) {
	switch r.op {
	case ioRead:
		r.src.ReadDiskTagged(p, r.key, r.bytes)
	case ioSend:
		r.src.SendTo(p, r.dst, r.bytes)
	case ioStore:
		r.src.SendTo(p, r.dst, r.bytes)
		r.dst.WriteDiskTagged(p, r.key, r.bytes)
	case ioRelay:
		r.src.ReadFromDiskTo(p, r.dst, r.bytes)
	}
}

// spawnIO starts a process named name running op from vm.
func (vm *VM) spawnIO(name string, op ioOp, dst *VM, key string, bytes float64) *IOProc {
	m := vm.mgr
	r := m.freeIO
	if r != nil {
		m.freeIO, r.next = r.next, nil
	} else {
		r = &IOProc{mgr: m}
		r.body = r.run
	}
	r.op, r.src, r.dst, r.key, r.bytes = op, vm, dst, key, bytes
	m.engine.SpawnInto(&r.proc, name, r.body)
	return r
}

// SpawnStore starts a process named name that sends bytes from vm to dst,
// which then writes them to its disk under the page-cache tag key ("" for
// none): one HDFS pipeline stage, or one repair copy.
func (vm *VM) SpawnStore(name string, dst *VM, key string, bytes float64) *IOProc {
	return vm.spawnIO(name, ioStore, dst, key, bytes)
}

// SpawnRelay starts a process named name that runs ReadFromDiskTo(dst,
// bytes) on vm.
func (vm *VM) SpawnRelay(name string, dst *VM, bytes float64) *IOProc {
	return vm.spawnIO(name, ioRelay, dst, "", bytes)
}

// ReadAndSend reads bytes tagged key ("" for none) from vm's disk while it
// streams them to dst, each half in its own process (diskName, then
// netName), and blocks p until both have terminated. A same-VM dst needs
// no network half. It returns the disk half's error, else the network
// half's.
func (vm *VM) ReadAndSend(p *sim.Proc, dst *VM, key string, bytes float64, diskName, netName string) error {
	disk := vm.spawnIO(diskName, ioRead, nil, key, bytes)
	if dst == vm {
		return disk.Wait(p)
	}
	net := vm.spawnIO(netName, ioSend, dst, "", bytes)
	derr := disk.Wait(p)
	nerr := net.Wait(p)
	if derr != nil {
		return derr
	}
	return nerr
}

// Wait blocks p until r's process has terminated and returns the error
// the process failed with, if any. It puts r back on the free list when
// the process ended cleanly. r must not be used again.
func (r *IOProc) Wait(p *sim.Proc) error {
	r.proc.Done().Wait(p)
	err := r.proc.Err()
	if r.proc.Reusable() {
		m := r.mgr
		r.src, r.dst, r.key = nil, nil, ""
		r.next, m.freeIO = m.freeIO, r
	}
	return err
}
