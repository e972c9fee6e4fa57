package xen

import (
	"vhadoop/internal/sim"
	"vhadoop/internal/vnet"
)

// ioOp is the kind of a VM I/O operation.
type ioOp uint8

const (
	ioRead  ioOp = iota // read bytes of key from src's disk
	ioWrite             // write bytes under key to src's disk
	ioSend              // stream bytes from src to dst over the fabric
	ioStore             // ioSend, then ioWrite on dst
	ioRelay             // O_DIRECT read of src's disk, relayed through src's dom0 to dst
)

// ioPC is where a vmIO resumes.
type ioPC uint8

const (
	pcStart ioPC = iota // the current leg has not checked its VM yet
	pcGate              // its VM's gate is open: check again and start the stream
	pcWait              // its stream is in flight
)

// vmIO is one VM I/O operation written once, as steps, so that a process
// and a chain of callbacks run the same code. step advances it to its next
// wait and reports what it waits on; its driver waits there and calls step
// again. Each step runs exactly the statements the operation's blocking
// form ran between the same two waits, so either driver draws every event
// in the order that form did.
//
// An operation is one leg, or two for a store: a send, then a write on
// dst. A leg checks that its VM lives, waits out the VM's pause, checks
// again (and the peer), counts its bytes, registers on the VMs it touches
// so that their crash aborts it (watch), and waits out one vnet.Stream.
type vmIO struct {
	op    ioOp
	dst   *VM
	key   uint64 // page-cache block id (0 for none)
	bytes float64
	who   watcher // what a crash of a VM the operation touches aborts

	pc      ioPC
	leg     ioOp // the current leg: ioRead, ioWrite, ioSend or ioRelay
	vm      *VM  // the VM the current leg runs on
	insert  bool // the current leg caches key once its stream is done
	st      vnet.Stream
	watched [2]*VM // VMs whose in-flight lists hold who, in watch order
	nw      int
}

// newIO returns op from src (to dst, for a send, store or relay), ready to
// step.
func newIO(op ioOp, src, dst *VM, key uint64, bytes float64) vmIO {
	leg := op
	if op == ioStore {
		leg = ioSend
	}
	return vmIO{op: op, dst: dst, key: key, bytes: bytes, leg: leg, vm: src}
}

// step advances o until it must wait. It returns a gate that must be open
// before o can go on, a latch that must fire, or, once o has ended, two
// nils and the error it failed with.
func (o *vmIO) step() (*sim.Gate, *sim.Done, error) {
	for {
		switch o.pc {
		case pcStart:
			if o.moves() {
				if err := o.vm.downErr(); err != nil {
					return nil, nil, err
				}
				o.pc = pcGate
				return o.vm.gate, nil, nil
			}
			if !o.nextLeg() {
				return nil, nil, nil
			}
		case pcGate:
			if err := o.begin(); err != nil {
				return nil, nil, err
			}
			o.pc = pcWait
		case pcWait:
			if d := o.st.Next(); d != nil {
				return nil, d, nil
			}
			if o.insert {
				o.vm.host.Cache.Insert(o.key, o.bytes)
			}
			o.unwatchAll()
			if !o.nextLeg() {
				return nil, nil, nil
			}
		}
	}
}

// moves reports whether the current leg moves any bytes: none are moved
// for zero bytes, or by a send to the sending VM itself.
func (o *vmIO) moves() bool {
	return o.bytes > 0 && !(o.leg == ioSend && o.dst == o.vm)
}

// nextLeg moves a store from its send to its write on dst and reports
// whether there was a leg left.
func (o *vmIO) nextLeg() bool {
	if o.op != ioStore || o.leg != ioSend {
		return false
	}
	o.leg, o.vm, o.insert, o.pc = ioWrite, o.dst, false, pcStart
	return true
}

// begin starts the current leg on a VM whose gate is open: the liveness
// checks, the byte counters, the watches and the stream, in that order.
func (o *vmIO) begin() error {
	vm, dst := o.vm, o.dst
	if err := vm.downErr(); err != nil {
		return err
	}
	mgr := vm.mgr
	switch o.leg {
	case ioRead:
		vm.diskRead += o.bytes
		o.watch(vm)
		if o.key != 0 && vm.host.Cache.Contains(o.key) {
			o.st = mgr.topo.Fabric().Stream(vm.host.MemBus, o.bytes, nil, 0)
			return nil
		}
		o.st = mgr.nfs.Read(vm.host, o.bytes)
		o.insert = o.key != 0
	case ioWrite:
		vm.diskWrite += o.bytes
		o.watch(vm)
		o.st = mgr.nfs.Write(vm.host, o.bytes)
		o.insert = o.key != 0
	case ioSend:
		if err := dst.downErr(); err != nil {
			return err
		}
		vm.netSent += o.bytes
		dst.netRecv += o.bytes
		o.watch(vm)
		o.watch(dst)
		o.st = mgr.topo.Fabric().Stream(nil, 0, mgr.topo.Path(vm.host, dst.host), o.bytes)
	case ioRelay:
		remote := dst != nil && dst != vm
		if remote {
			if err := dst.downErr(); err != nil {
				return err
			}
		}
		vm.diskRead += o.bytes
		o.watch(vm)
		if !remote {
			o.st = mgr.nfs.Read(vm.host, o.bytes)
			return nil
		}
		vm.netSent += o.bytes
		dst.netRecv += o.bytes
		o.watch(dst)
		o.st = mgr.nfs.Relay(vm.host, dst.host, o.bytes)
	}
	return nil
}

// watch registers o's watcher on vm (see VM.watch).
func (o *vmIO) watch(vm *VM) {
	vm.watch(o.who)
	o.watched[o.nw] = vm
	o.nw++
}

// unwatchAll takes o's watcher off every VM it is registered on, the last
// registered first.
func (o *vmIO) unwatchAll() {
	for o.nw > 0 {
		o.nw--
		o.watched[o.nw].unwatch(o.who)
		o.watched[o.nw] = nil
	}
}

// run drives o as process p: p waits at each gate and latch step returns,
// and fails with o's error. An abort or kill that unwinds p mid-wait takes
// its watches with it.
func (o *vmIO) run(p *sim.Proc) {
	o.who = watcher{proc: p}
	defer o.unwatchAll()
	for {
		switch g, d, err := o.step(); {
		case g != nil:
			g.WaitOpen(p)
		case d != nil:
			d.Wait(p)
		case err != nil:
			p.Fail(err)
		default:
			return
		}
	}
}

// IOProc is one bulk I/O operation of a VM started for a caller that
// overlaps several and then waits on each: an HDFS pipeline stage or repair
// copy, a block read's disk and network halves, an O_DIRECT relay, a
// shuffle fetch's two halves. It owns no process: its steps (vmIO) advance
// from the callbacks of the gates and latches they wait on. Its start and
// each of its wakes draw one event at the current time, exactly the events
// a process running the same steps would draw, so a run does not depend on
// which driver ran a stage. It ends with the operation's error, or with the
// abort of a crash of a VM it touches, and then fires the latch Wait blocks
// on.
//
// Records come from the Manager's free list, with resume bound once as a
// method value, so starting one allocates nothing once the list is warm.
// Wait puts a record back unless it was aborted: an aborted record may
// still be called back by the latch it was waiting on, which must never
// reach a later operation. A caller aborted or killed inside Wait unwinds
// past that point, so the records it had not waited out are never reused;
// they run on unobserved.
type IOProc struct {
	vmIO
	mgr      *Manager
	gate     *sim.Gate    // the closed gate resume waits on, nil otherwise
	abortErr error        // a pending abort, taken by the next resume
	err      error        // the error r ended with
	done     sim.Done     // fires when r ends
	wake     func()       // resume, bound once as a method value
	cb       sim.Callback // wake, as a latch waiter
	next     *IOProc      // free-list link, set only while on the list
}

// spawnIO starts op from vm as a chain at the current time.
func (vm *VM) spawnIO(op ioOp, dst *VM, key uint64, bytes float64) *IOProc {
	m := vm.mgr
	r := m.freeIO
	if r != nil {
		m.freeIO, r.next = r.next, nil
	} else {
		r = &IOProc{mgr: m}
		r.wake = r.resume
		r.cb = sim.NewCallback(m.engine, r.wake)
	}
	r.vmIO = newIO(op, vm, dst, key, bytes)
	r.who = watcher{io: r}
	m.engine.At(m.engine.Now(), r.wake)
	return r
}

// resume runs r's steps from the event that woke it (its start, a gate's
// open, a latch's fire or an abort) to its next wait, or ends it. A pending
// abort ends it first, whichever of those events comes first; a wake of a
// record that has ended does nothing.
func (r *IOProc) resume() {
	if r.done.Fired() {
		return
	}
	if r.abortErr != nil {
		r.end(r.abortErr)
		return
	}
	if g := r.gate; g != nil {
		if !g.OpenOr(r.wake) {
			return
		}
		r.gate = nil
	}
	for {
		switch g, d, err := r.step(); {
		case g != nil:
			if !g.OpenOr(r.wake) {
				r.gate = g
				return
			}
		case d != nil:
			if !d.FiredOr(&r.cb) {
				return
			}
		default:
			r.end(err)
			return
		}
	}
}

// end takes r off the VMs it is registered on, the last registered first,
// records err and releases r's waiter.
func (r *IOProc) end(err error) {
	r.unwatchAll()
	r.err = err
	r.done.Fire()
}

// abort ends r with err at its next wake, as sim.Proc.Abort ends a parked
// process: the abort draws one event at the current time, and r ends at
// that event or at the wake it was already due, whichever comes first. A
// second abort, or one of a record that has ended, is a no-op.
func (r *IOProc) abort(err error) {
	if r.done.Fired() || r.abortErr != nil {
		return
	}
	r.abortErr = err
	e := r.mgr.engine
	e.At(e.Now(), r.wake)
}

// SpawnStore starts sending bytes from vm to dst, which then writes them to
// its disk under the block id key (0 for none): one HDFS pipeline
// stage, or one repair copy.
func (vm *VM) SpawnStore(dst *VM, key uint64, bytes float64) *IOProc {
	return vm.spawnIO(ioStore, dst, key, bytes)
}

// SpawnRelay starts an O_DIRECT read of bytes from vm's disk, streamed to
// dst as one coupled flow: filer disk -> filer NIC -> vm's host -> (bridge
// and NICs as needed) -> dst. Because the relay occupies every segment
// simultaneously, a cross-machine read consumes both machines' netback
// capacity for its full volume — the physical reason cross-domain HDFS
// reads degrade. Xen's blktap opens image files with O_DIRECT, so there is
// no dom0 caching on this path; a dst of nil or vm reads the disk alone.
func (vm *VM) SpawnRelay(dst *VM, bytes float64) *IOProc {
	return vm.spawnIO(ioRelay, dst, 0, bytes)
}

// ReadAndSend reads bytes under the block id key (0 for none) from vm's
// disk while it streams them to dst, and blocks p until both halves have
// ended. A same-VM dst needs no network half. It returns the disk half's
// error, else the network half's.
func (vm *VM) ReadAndSend(p *sim.Proc, dst *VM, key uint64, bytes float64) error {
	disk := vm.spawnIO(ioRead, nil, key, bytes)
	if dst == vm {
		return disk.Wait(p)
	}
	net := vm.spawnIO(ioSend, dst, 0, bytes)
	derr := disk.Wait(p)
	nerr := net.Wait(p)
	if derr != nil {
		return derr
	}
	return nerr
}

// Wait blocks p until r has ended and returns the error it ended with. It
// puts r back on the free list unless r was aborted. r must not be used
// again.
func (r *IOProc) Wait(p *sim.Proc) error {
	r.done.Wait(p)
	err := r.err
	if r.abortErr == nil {
		// r ended inside the only callback it had registered, so nothing
		// can call it back.
		m := r.mgr
		r.vmIO = vmIO{}
		r.err, r.done = nil, sim.Done{}
		r.next, m.freeIO = m.freeIO, r
	}
	return err
}
