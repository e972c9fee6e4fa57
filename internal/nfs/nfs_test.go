package nfs

import (
	"math"
	"testing"

	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
	"vhadoop/internal/vnet"
)

// testbed: two compute machines plus an NFS filer with a 100 MB/s disk and
// 125 MB/s NICs everywhere.
func newTestbed() (*sim.Engine, *phys.Topology, *Server) {
	e := sim.New(1)
	f := vnet.NewFabric(e)
	topo := phys.NewTopology(e, f, 10e9, 0)
	spec := phys.MachineSpec{
		Cores: 8, DRAMBytes: 32e9, DiskBW: 100e6,
		NICBW: 125e6, BridgeBW: 500e6,
	}
	topo.AddMachine("pm1", spec)
	topo.AddMachine("pm2", spec)
	filerSpec := spec
	filer := topo.AddMachine("filer", filerSpec)
	return e, topo, NewServer(topo, filer)
}

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func TestReadCostIsSlowerOfDiskAndNetwork(t *testing.T) {
	e, topo, srv := newTestbed()
	client := topo.Machines()[0]
	var done sim.Time
	e.Spawn("r", func(p *sim.Proc) {
		st := srv.Read(client, 500e6)
		st.Wait(p)
		done = p.Now()
	})
	e.Run()
	// Disk at 100 MB/s is slower than the 125 MB/s network path: 5s.
	almost(t, done, 5, 0.01, "read bound by filer disk")
	almost(t, srv.ReadBytes(), 500e6, 1, "read accounting")
}

func TestWriteMirrorsRead(t *testing.T) {
	e, topo, srv := newTestbed()
	client := topo.Machines()[0]
	var done sim.Time
	e.Spawn("w", func(p *sim.Proc) {
		st := srv.Write(client, 200e6)
		st.Wait(p)
		done = p.Now()
	})
	e.Run()
	// 200MB x 1.5 RAID write penalty at 100MB/s = 3s.
	almost(t, done, 3, 0.01, "write bound by filer disk")
	almost(t, srv.WriteBytes(), 200e6, 1, "write accounting")
}

func TestConcurrentClientsContendOnFilerDisk(t *testing.T) {
	e, topo, srv := newTestbed()
	c1, c2 := topo.Machines()[0], topo.Machines()[1]
	var d1, d2 sim.Time
	e.Spawn("r1", func(p *sim.Proc) { st := srv.Read(c1, 300e6); st.Wait(p); d1 = p.Now() })
	e.Spawn("r2", func(p *sim.Proc) { st := srv.Read(c2, 300e6); st.Wait(p); d2 = p.Now() })
	e.Run()
	// Two concurrent readers: each path has its own NIC, but the filer disk
	// (100 MB/s shared) is now the bottleneck at 50 MB/s each => 6s.
	// The filer's tx NIC (125 MB/s shared => 62.5 each) is faster than that.
	almost(t, d1, 6, 0.05, "reader 1 under disk contention")
	almost(t, d2, 6, 0.05, "reader 2 under disk contention")
}

func TestSameMachineClientsContendOnNIC(t *testing.T) {
	e, topo, srv := newTestbed()
	c1 := topo.Machines()[0]
	var d1, d2 sim.Time
	e.Spawn("r1", func(p *sim.Proc) { st := srv.Read(c1, 300e6); st.Wait(p); d1 = p.Now() })
	e.Spawn("r2", func(p *sim.Proc) { st := srv.Read(c1, 300e6); st.Wait(p); d2 = p.Now() })
	e.Run()
	// Both land on pm1's rx NIC (125 MB/s shared => 62.5 each) but the filer
	// disk share (50 each) is still tighter => 6s again; check it is not
	// faster than the single-NIC bound.
	if d1 < 4.8-0.01 || d2 < 4.8-0.01 {
		t.Fatalf("reads too fast: %v %v (NIC sharing ignored?)", d1, d2)
	}
}

// A boot fetches its VM image with Read, into the host's dom0.
func TestFetchImage(t *testing.T) {
	e, topo, srv := newTestbed()
	dst := topo.Machines()[0]
	var done sim.Time
	e.Spawn("boot", func(p *sim.Proc) {
		st := srv.Read(dst, 100e6)
		st.Wait(p)
		done = p.Now()
	})
	e.Run()
	almost(t, done, 1, 0.01, "image fetch bound by filer disk")
}

// A relayed read is one flow from the filer through the host's dom0 and
// on over the guest network, so it shares the host's guest NIC with guest
// traffic; a Read to the same host stays on the storage NIC. Against a
// 500 MB guest transfer from host to dst, the relay gets half of the
// 125 MB/s NIC (250 MB in 4 s), while the Read is bound by the filer disk
// (2.5 s).
func TestRelayContendsWithGuestTraffic(t *testing.T) {
	for _, relay := range []bool{true, false} {
		e, topo, srv := newTestbed()
		host, dst := topo.Machines()[0], topo.Machines()[1]
		e.Spawn("guest", func(p *sim.Proc) {
			topo.Fabric().Transfer(p, "guest", topo.Path(host, dst), 500e6)
		})
		var done sim.Time
		e.Spawn("read", func(p *sim.Proc) {
			var st vnet.Stream
			if relay {
				st = srv.Relay(host, dst, 250e6)
			} else {
				st = srv.Read(host, 250e6)
			}
			st.Wait(p)
			done = p.Now()
		})
		e.Run()
		if relay {
			almost(t, done, 4, 1e-6, "relay shares the guest NIC")
		} else {
			almost(t, done, 2.5, 1e-6, "read bound by filer disk")
		}
		almost(t, srv.ReadBytes(), 250e6, 1, "read accounting")
	}
}

func TestZeroByteIOIsFree(t *testing.T) {
	e, topo, srv := newTestbed()
	client := topo.Machines()[0]
	var done sim.Time
	e.Spawn("z", func(p *sim.Proc) {
		for _, st := range []vnet.Stream{
			srv.Read(client, 0),
			srv.Write(client, 0),
			srv.Relay(client, topo.Machines()[1], 0),
		} {
			st.Wait(p)
		}
		done = p.Now()
	})
	e.Run()
	almost(t, done, 0, 0, "zero-byte I/O")
}
