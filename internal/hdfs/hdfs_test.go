package hdfs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vhadoop/internal/nfs"
	"vhadoop/internal/obs"
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
	"vhadoop/internal/vnet"
	"vhadoop/internal/xen"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

// testbed builds nPM machines with nVM VMs spread round-robin, a namenode on
// the first VM and datanodes on the rest.
type testbed struct {
	engine  *sim.Engine
	topo    *phys.Topology
	mgr     *xen.Manager
	vms     []*xen.VM
	cluster *Cluster
}

func newTestbed(seed int64, nPM, nVM int, cfg Config) *testbed {
	e := sim.New(seed)
	f := vnet.NewFabric(e)
	topo := phys.NewTopology(e, f, 10e9, 0.00001)
	spec := phys.MachineSpec{
		Cores: 16, DRAMBytes: 32e9, DiskBW: 100e6,
		NICBW: 119e6, NICLat: 0.0001, BridgeBW: 500e6, BridgeLat: 0.00002,
	}
	for i := 0; i < nPM; i++ {
		topo.AddMachine(fmt.Sprintf("pm%d", i+1), spec)
	}
	filer := topo.AddMachine("filer", spec)
	mgr := xen.NewManager(topo, nfs.NewServer(topo, filer))
	tb := &testbed{engine: e, topo: topo, mgr: mgr}
	for i := 0; i < nVM; i++ {
		host := topo.Machines()[i%nPM]
		tb.vms = append(tb.vms, mgr.MustDefine(fmt.Sprintf("vm%d", i), 1024e6, host))
	}
	tb.cluster = NewCluster(cfg, tb.vms[0])
	for _, vm := range tb.vms[1:] {
		tb.cluster.AddDatanode(vm)
	}
	return tb
}

func mkRecords(n int, each float64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: fmt.Sprintf("k%04d", i), Value: i, Size: each}
	}
	return recs
}

func TestWriteCreatesBlocksAndReplicas(t *testing.T) {
	// PM-aware placement (rack topology configured) for the off-PM check.
	tb := newTestbed(1, 2, 5, Config{BlockSize: 64e6, Replication: 2, PMAware: true})
	client := tb.vms[1]
	var f *File
	tb.engine.Spawn("writer", func(p *sim.Proc) {
		var err error
		f, err = tb.cluster.Write(p, client, "/data", 200e6, mkRecords(100, 2e6))
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	tb.engine.Run()
	if f == nil {
		t.Fatal("no file")
	}
	if len(f.Blocks) != 4 { // ceil(200/64)
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
	var total float64
	for _, b := range f.Blocks {
		total += b.Size
		if len(b.Replicas) != 2 {
			t.Fatalf("block %d has %d replicas", b.ID, len(b.Replicas))
		}
		// First replica must be writer-local (client is a datanode).
		if b.Replicas[0].VM != client {
			t.Fatalf("block %d first replica on %s, want writer-local", b.ID, b.Replicas[0].VM.Name)
		}
		// Second replica on a different physical machine.
		if b.Replicas[1].VM.Host() == client.Host() {
			t.Fatalf("block %d second replica on same PM", b.ID)
		}
	}
	almost(t, total, 200e6, 1, "block sizes sum to file size")
	if f.NumRecords() != 100 {
		t.Fatalf("records = %d", f.NumRecords())
	}
}

func TestRecordsPartitionedByBlock(t *testing.T) {
	groups := splitRecords(mkRecords(10, 10e6), 100e6, 40e6)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	if len(groups[0]) != 4 || len(groups[1]) != 4 || len(groups[2]) != 2 {
		t.Fatalf("group sizes = %d/%d/%d, want 4/4/2", len(groups[0]), len(groups[1]), len(groups[2]))
	}
}

func TestDuplicateWriteFails(t *testing.T) {
	tb := newTestbed(1, 1, 3, DefaultConfig())
	var err2 error
	tb.engine.Spawn("writer", func(p *sim.Proc) {
		if _, err := tb.cluster.Write(p, tb.vms[1], "/x", 10e6, nil); err != nil {
			t.Errorf("first write: %v", err)
		}
		_, err2 = tb.cluster.Write(p, tb.vms[1], "/x", 10e6, nil)
	})
	tb.engine.Run()
	if !errors.Is(err2, ErrFileExists) {
		t.Fatalf("second write err = %v", err2)
	}
}

func TestReadPrefersLocalReplica(t *testing.T) {
	tb := newTestbed(1, 2, 5, Config{BlockSize: 64e6, Replication: 2})
	writer := tb.vms[1]
	tb.engine.Spawn("w", func(p *sim.Proc) {
		if _, err := tb.cluster.Write(p, writer, "/d", 64e6, nil); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	tb.engine.Run()
	sentBefore := writer.NetRecv()
	tb.engine.Spawn("r", func(p *sim.Proc) {
		if _, err := tb.cluster.Read(p, writer, "/d"); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	tb.engine.Run()
	// Local read: no bytes received over the network.
	almost(t, writer.NetRecv()-sentBefore, 0, 1, "local read moved network bytes")
}

func TestReadFallsBackWhenReplicaDies(t *testing.T) {
	tb := newTestbed(1, 2, 5, Config{BlockSize: 64e6, Replication: 2})
	writer := tb.vms[1]
	tb.engine.Spawn("w", func(p *sim.Proc) {
		if _, err := tb.cluster.Write(p, writer, "/d", 64e6, nil); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	tb.engine.Run()
	// Kill the writer-local replica; a read from another VM must still work.
	tb.cluster.Decommission(tb.cluster.DatanodeOf(writer))
	reader := tb.vms[2]
	var readErr error
	tb.engine.Spawn("r", func(p *sim.Proc) {
		_, readErr = tb.cluster.Read(p, reader, "/d")
	})
	tb.engine.Run()
	if readErr != nil {
		t.Fatalf("read after decommission: %v", readErr)
	}
	if got := len(tb.cluster.UnderReplicated()); got != 1 {
		t.Fatalf("under-replicated blocks = %d, want 1", got)
	}
}

func TestReadFailsWhenAllReplicasDead(t *testing.T) {
	tb := newTestbed(1, 1, 3, Config{BlockSize: 64e6, Replication: 2})
	tb.engine.Spawn("w", func(p *sim.Proc) {
		if _, err := tb.cluster.Write(p, tb.vms[1], "/d", 64e6, nil); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	tb.engine.Run()
	for _, d := range tb.cluster.Datanodes() {
		tb.cluster.Decommission(d)
	}
	var readErr error
	tb.engine.Spawn("r", func(p *sim.Proc) {
		_, readErr = tb.cluster.Read(p, tb.vms[0], "/d")
	})
	tb.engine.Run()
	if !errors.Is(readErr, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", readErr)
	}
}

func TestReplicationCappedByClusterSize(t *testing.T) {
	tb := newTestbed(1, 1, 3, Config{BlockSize: 64e6, Replication: 5})
	var f *File
	tb.engine.Spawn("w", func(p *sim.Proc) {
		f, _ = tb.cluster.Write(p, tb.vms[1], "/d", 64e6, nil)
	})
	tb.engine.Run()
	if got := len(f.Blocks[0].Replicas); got != 2 { // only 2 datanodes exist
		t.Fatalf("replicas = %d, want 2", got)
	}
}

func TestWriteReplicationCostScaling(t *testing.T) {
	// Higher replication => more pipeline traffic => slower writes.
	elapsed := func(repl int) sim.Time {
		tb := newTestbed(1, 2, 9, Config{BlockSize: 64e6, Replication: repl})
		var took sim.Time
		tb.engine.Spawn("w", func(p *sim.Proc) {
			start := p.Now()
			if _, err := tb.cluster.Write(p, tb.vms[1], "/d", 256e6, nil); err != nil {
				t.Errorf("write: %v", err)
			}
			took = p.Now() - start
		})
		tb.engine.Run()
		return took
	}
	if e1, e3 := elapsed(1), elapsed(3); e3 <= e1 {
		t.Fatalf("replication 3 write (%v) not slower than replication 1 (%v)", e3, e1)
	}
}

func TestIsLocal(t *testing.T) {
	tb := newTestbed(1, 2, 5, Config{BlockSize: 64e6, Replication: 2})
	writer := tb.vms[1]
	var f *File
	tb.engine.Spawn("w", func(p *sim.Proc) {
		f, _ = tb.cluster.Write(p, writer, "/d", 64e6, nil)
	})
	tb.engine.Run()
	b := f.Blocks[0]
	if !tb.cluster.IsLocal(b, writer) {
		t.Fatal("writer not local to its own block")
	}
	if tb.cluster.IsLocal(b, tb.vms[0]) {
		t.Fatal("namenode unexpectedly local to block")
	}
}

// Property: for any file size and block size, blocks tile the file exactly
// and every record lands in exactly one block.
func TestBlockTilingProperty(t *testing.T) {
	prop := func(sizeRaw, blockRaw uint16, nRecs uint8) bool {
		size := float64(sizeRaw%2000+1) * 1e6
		blockSize := float64(blockRaw%256+16) * 1e6
		n := int(nRecs % 64)
		recs := mkRecords(n, size/float64(max(n, 1)))
		tb := newTestbed(3, 2, 5, Config{BlockSize: blockSize, Replication: 2})
		var f *File
		tb.engine.Spawn("w", func(p *sim.Proc) {
			f, _ = tb.cluster.Write(p, tb.vms[1], "/d", size, recs)
		})
		tb.engine.Run()
		if f == nil {
			return false
		}
		var total float64
		nr := 0
		for _, b := range f.Blocks {
			if b.Size <= 0 || b.Size > blockSize+1 {
				return false
			}
			total += b.Size
			nr += len(b.Records)
		}
		return math.Abs(total-size) < 1 && nr == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestReReplicateRestoresFactor(t *testing.T) {
	tb := newTestbed(1, 2, 6, Config{BlockSize: 64e6, Replication: 2})
	writer := tb.vms[1]
	tb.engine.Spawn("w", func(p *sim.Proc) {
		if _, err := tb.cluster.Write(p, writer, "/d", 256e6, nil); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	tb.engine.Run()
	// Kill one datanode: some blocks drop to one live replica.
	tb.cluster.Decommission(tb.cluster.DatanodeOf(writer))
	lost := len(tb.cluster.UnderReplicated())
	if lost == 0 {
		t.Fatal("no under-replicated blocks after decommission")
	}
	var created int
	tb.engine.Spawn("repair", func(p *sim.Proc) {
		created = tb.cluster.ReReplicate(p)
	})
	tb.engine.Run()
	if created != lost {
		t.Fatalf("created %d replicas for %d under-replicated blocks", created, lost)
	}
	if got := len(tb.cluster.UnderReplicated()); got != 0 {
		t.Fatalf("%d blocks still under-replicated after repair", got)
	}
	// Repair is idempotent.
	tb.engine.Spawn("repair2", func(p *sim.Proc) {
		if n := tb.cluster.ReReplicate(p); n != 0 {
			t.Errorf("second repair created %d replicas", n)
		}
	})
	tb.engine.Run()
}

// TestReReplicateSurvivesFailedCopy crashes a repair copy's target VM
// mid-copy. The pass creates no replica for the block, counts one repair
// failure and leaves the cause on the repair span's error attribute; the
// failed copy's xen.IOProc record is dropped, not reused. A later pass
// picks another target and completes the repair.
func TestReReplicateSurvivesFailedCopy(t *testing.T) {
	tb := newTestbed(1, 2, 5, Config{BlockSize: 64e6, Replication: 2})
	pl := obs.New(tb.engine)
	c := tb.cluster
	c.SetObs(pl)
	writer := tb.vms[1]
	tb.engine.Spawn("w", func(p *sim.Proc) {
		if _, err := c.Write(p, writer, "/d", 64e6, nil); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	tb.engine.Run()
	c.Decommission(c.DatanodeOf(writer))
	if n := len(c.UnderReplicated()); n != 1 {
		t.Fatalf("%d under-replicated blocks after decommission, want 1", n)
	}

	// Crash whichever VM the copy streams to, once it is under way.
	var victim string
	tb.engine.After(0.1, func() {
		for _, sp := range pl.Tracer().Export().Spans {
			for _, a := range sp.Attrs {
				if sp.Kind == obs.KindRepair && a.Key == "dst" {
					victim = a.Value
				}
			}
		}
		for _, vm := range tb.vms {
			if vm.Name == victim {
				vm.Crash()
			}
		}
	})
	repair := func() (created int) {
		tb.engine.Spawn("repair", func(p *sim.Proc) { created = c.ReReplicate(p) })
		tb.engine.Run()
		return created
	}
	if n := repair(); n != 0 || victim == "" {
		t.Fatalf("first pass created %d replicas with target %q crashed mid-copy, want 0", n, victim)
	}
	snap := pl.Registry().Snapshot()
	if got := snap.Total("hdfs_repair_failures_total"); got != 1 {
		t.Fatalf("hdfs_repair_failures_total = %v, want 1", got)
	}
	spans := pl.Tracer().Export().Spans
	errAttr := ""
	for _, a := range spans[len(spans)-1].Attrs {
		if a.Key == "error" {
			errAttr = a.Value
		}
	}
	if !strings.Contains(errAttr, xen.ErrVMDead.Error()) || !strings.Contains(errAttr, victim) {
		t.Fatalf("repair span error attribute = %q, want the crash of %s", errAttr, victim)
	}

	if n := repair(); n != 1 {
		t.Fatalf("second pass created %d replicas, want 1", n)
	}
	if n := len(c.UnderReplicated()); n != 0 {
		t.Fatalf("%d blocks still under-replicated after the second pass", n)
	}
	if got := pl.Registry().Snapshot().Total("hdfs_repair_failures_total"); got != 1 {
		t.Fatalf("hdfs_repair_failures_total = %v after the second pass, want 1", got)
	}
}

func TestWritePipelineFailoverMidStream(t *testing.T) {
	// Replication = all 3 datanodes, so the pipeline is known up front:
	// writer-local first, the others behind it. Crashing a tail datanode
	// mid-stream must shrink the pipeline and resend, not fail the write.
	tb := newTestbed(1, 1, 4, Config{BlockSize: 64e6, Replication: 3})
	writer := tb.vms[1]
	victim := tb.vms[2]
	tb.engine.At(0.3, victim.Crash)
	var f *File
	var werr error
	tb.engine.Spawn("w", func(p *sim.Proc) {
		f, werr = tb.cluster.Write(p, writer, "/d", 64e6, nil)
	})
	tb.engine.Run()
	if werr != nil {
		t.Fatalf("write with mid-pipeline crash: %v", werr)
	}
	b := f.Blocks[0]
	if len(b.Replicas) != 2 {
		t.Fatalf("replicas = %d, want 2 survivors", len(b.Replicas))
	}
	for _, d := range b.Replicas {
		if !d.Alive() {
			t.Fatalf("replica %s registered on a dead datanode", d.VM.Name)
		}
		if d.VM == victim {
			t.Fatal("crashed datanode still in the pipeline")
		}
	}
}

func TestWriteFailsWhenClientDies(t *testing.T) {
	tb := newTestbed(1, 1, 4, Config{BlockSize: 64e6, Replication: 2})
	writer := tb.vms[1]
	tb.engine.At(0.3, writer.Crash)
	var werr error
	tb.engine.Spawn("w", func(p *sim.Proc) {
		_, werr = tb.cluster.Write(p, writer, "/d", 64e6, nil)
	})
	tb.engine.Run()
	if !errors.Is(werr, xen.ErrVMDead) {
		t.Fatalf("err = %v, want ErrVMDead (no pipeline can save a dead writer)", werr)
	}
}

func TestReadFailoverMidStream(t *testing.T) {
	// Both datanodes hold every block; crash one while the namenode-hosted
	// client is mid-way through a multi-block read. Blocks being served by
	// (or later routed to) the dead replica must fail over to the survivor.
	tb := newTestbed(1, 1, 3, Config{BlockSize: 64e6, Replication: 2})
	tb.engine.Spawn("w", func(p *sim.Proc) {
		if _, err := tb.cluster.Write(p, tb.vms[1], "/d", 256e6, nil); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	tb.engine.Run()
	start := tb.engine.Now()
	tb.engine.At(start+2, tb.vms[2].Crash)
	var rerr error
	tb.engine.Spawn("r", func(p *sim.Proc) {
		_, rerr = tb.cluster.Read(p, tb.vms[0], "/d")
	})
	tb.engine.Run()
	if rerr != nil {
		t.Fatalf("read with mid-stream replica crash: %v", rerr)
	}
}

// Regression for the Decommission hole: a decommissioned datanode's blocks
// used to stay under-replicated forever. With the replication monitor
// running they must regain full replication — sourced, while the node's VM
// still runs, from its intact disk (decommissioning-in-progress), and the
// monitor must survive a source VM crashing mid-copy.
func TestDecommissionRegainsReplication(t *testing.T) {
	tb := newTestbed(1, 1, 5, Config{BlockSize: 64e6, Replication: 2})
	writer := tb.vms[1]
	var f *File
	tb.engine.Spawn("w", func(p *sim.Proc) {
		var err error
		f, err = tb.cluster.Write(p, writer, "/d", 64e6, nil)
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	tb.engine.Run()
	b := f.Blocks[0]
	// Decommission the non-writer replica, then crash the writer-local one
	// mid-way through the monitor's first repair copy: the only remaining
	// source is the decommissioned node's still-running VM.
	tb.cluster.Decommission(b.Replicas[1])
	if got := len(tb.cluster.UnderReplicated()); got != 1 {
		t.Fatalf("under-replicated after decommission = %d, want 1", got)
	}
	start := tb.engine.Now()
	tb.engine.At(start+10.3, writer.Crash)
	tb.cluster.StartReplicationMonitor(10)
	tb.engine.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(100)
		tb.cluster.StopReplicationMonitor()
	})
	tb.engine.Run()
	if got := len(tb.cluster.UnderReplicated()); got != 0 {
		t.Fatalf("%d blocks still under-replicated after monitor repair", got)
	}
	if got := countLive(b); got != 2 {
		t.Fatalf("live replicas = %d, want 2", got)
	}
}

func TestReReplicateUnrecoverableBlock(t *testing.T) {
	tb := newTestbed(1, 1, 3, Config{BlockSize: 64e6, Replication: 2})
	tb.engine.Spawn("w", func(p *sim.Proc) {
		if _, err := tb.cluster.Write(p, tb.vms[1], "/d", 64e6, nil); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	tb.engine.Run()
	for _, d := range tb.cluster.Datanodes() {
		tb.cluster.Decommission(d)
	}
	tb.engine.Spawn("repair", func(p *sim.Proc) {
		if n := tb.cluster.ReReplicate(p); n != 0 {
			t.Errorf("repaired %d replicas with no live source", n)
		}
	})
	tb.engine.Run()
}

// TestWriteFailsWhenWholePipelineDies covers writeBlock's last return: a
// writer with no datanode of its own streams one block to two datanodes,
// both crash mid-stream, and no survivor is left to shrink the pipeline to.
// The write must fail with the crash and leave no file behind.
func TestWriteFailsWhenWholePipelineDies(t *testing.T) {
	tb := newTestbed(1, 1, 3, Config{BlockSize: 64e6, Replication: 2})
	writer := tb.vms[0] // the namenode's VM hosts no datanode
	for _, d := range tb.cluster.Datanodes() {
		tb.engine.At(0.3, d.VM.Crash)
	}
	var f *File
	var werr error
	tb.engine.Spawn("w", func(p *sim.Proc) {
		f, werr = tb.cluster.Write(p, writer, "/d", 64e6, nil)
	})
	tb.engine.Run()
	if !errors.Is(werr, xen.ErrVMDead) {
		t.Fatalf("err = %v, want ErrVMDead (every pipeline node died)", werr)
	}
	if f != nil || tb.cluster.Exists("/d") {
		t.Fatal("a write that lost its whole pipeline recorded a file")
	}
}

// TestBlockPathAllocs gates the allocations of one block's read and write
// on a warm cluster. A read allocates nothing: its disk and network halves
// (or, from a replica on the reader's VM, the disk half alone) run as
// recycled xen.IOProc records that own no process. Replica choice walks
// the block's replicas in place, so neither count grows with the number of
// datanodes.
//
// Writing a one-block file takes 6: the block, its page-cache tag, the
// pipeline that becomes its replica list, the file, its block list and
// splitRecords' group list. The counts were re-recorded when the stages
// stopped being processes and stayed 0, 0 and 6: on a warm cluster the
// stage records already held their sim.Proc by value and found idle
// carriers, so what the chains save is the carriers a cold platform no
// longer builds, which this warm gate does not see. While the stage
// records still spawned a fresh
// sim.Proc, the reads took 2 and 1 and the write 8. Before the pipeline
// stages and read halves became recycled records, transfers recycled their
// flows and disk jobs, and replica choice stopped building slices, maps
// and closures, the same write took 26 allocations at 4 datanodes and 28
// at 16, and the reads 10 and 5 at both.
func TestBlockPathAllocs(t *testing.T) {
	for _, datanodes := range []int{4, 16} {
		tb := newTestbed(1, 2, datanodes+1, Config{BlockSize: 64e6, Replication: 2, UseHostCache: true})
		c := tb.cluster
		nn := tb.vms[0] // hosts no datanode
		var f *File
		tb.engine.Spawn("w", func(p *sim.Proc) {
			var err error
			if f, err = c.Write(p, nn, "/d", 64e6, nil); err != nil {
				t.Errorf("write: %v", err)
			}
		})
		tb.engine.Run()
		b := f.Blocks[0]
		local := b.Replicas[0].VM

		remote := blockPathAllocs(tb, func(p *sim.Proc) {
			if err := c.ReadBlock(p, nn, b); err != nil {
				t.Errorf("remote read: %v", err)
			}
		})
		sameVM := blockPathAllocs(tb, func(p *sim.Proc) {
			if err := c.ReadBlock(p, local, b); err != nil {
				t.Errorf("same-VM read: %v", err)
			}
		})
		// Each run deletes the file and rewinds the block counter, so the
		// next writes the same block again: the namespace map and the page
		// caches stay the same size and never grow.
		write := blockPathAllocs(tb, func(p *sim.Proc) {
			delete(c.files, "/w")
			c.nextBlock--
			if _, err := c.Write(p, nn, "/w", 64e6, nil); err != nil {
				t.Errorf("write: %v", err)
			}
		})
		if remote != 0 || sameVM != 0 || write != 6 {
			t.Errorf("%d datanodes: %v allocs per remote read, %v per same-VM read, %v per one-block write; want 0, 0 and 6",
				datanodes, remote, sameVM, write)
		}
	}
}

// blockPathAllocs returns the allocations of one call of op, run by a
// driver process that a semaphore releases once per measured step. An
// event far beyond every step keeps the engine from draining, so it keeps
// its idle carriers between steps, as a busy cluster's does.
func blockPathAllocs(tb *testbed, op func(p *sim.Proc)) float64 {
	e := tb.engine
	const stepLen = 1000 // virtual seconds, far longer than one block op
	e.At(e.Now()+1e6*stepLen, func() {})
	q := sim.NewQueue(e, 1)
	q.Acquire(nil, 1) // the driver waits for the first step's release
	stop := false
	e.Spawn("driver", func(p *sim.Proc) {
		for !stop {
			q.Acquire(p, 1)
			op(p)
		}
	})
	step := func() {
		q.Release(1)
		e.RunUntil(e.Now() + stepLen)
	}
	for i := 0; i < 3; i++ {
		step() // warm the free lists, the carriers and the page caches
	}
	n := testing.AllocsPerRun(20, step)
	stop = true
	step()
	return n
}

// referenceChoosePipeline is choosePipeline as it was before it listed the
// live datanodes in scratch and dropped its chosen-set map, drawing from
// rng instead of c.rng. FuzzReplicaChoice checks the two against each other.
func referenceChoosePipeline(c *Cluster, rng *rand.Rand, client *xen.VM) ([]*Datanode, error) {
	var live []*Datanode
	for _, d := range c.datanodes {
		if d.Alive() {
			live = append(live, d)
		}
	}
	if len(live) == 0 {
		return nil, ErrNoDatanodes
	}
	want := c.cfg.Replication
	if want > len(live) {
		want = len(live)
	}
	var pipeline []*Datanode
	chosen := make(map[*Datanode]bool)
	add := func(d *Datanode) {
		if d != nil && !chosen[d] {
			pipeline = append(pipeline, d)
			chosen[d] = true
		}
	}
	if local := c.DatanodeOf(client); local != nil && local.Alive() {
		add(local)
	}
	if c.cfg.PMAware && len(pipeline) > 0 && len(pipeline) < want {
		srcPM := pipeline[0].VM.Host()
		off := rng.Intn(len(live))
		for i := 0; i < len(live); i++ {
			d := live[(off+i)%len(live)]
			if !chosen[d] && d.VM.Host() != srcPM {
				add(d)
				break
			}
		}
	}
	for start := rng.Intn(len(live)); len(pipeline) < want; start++ {
		add(live[start%len(live)])
	}
	return pipeline, nil
}

// referenceBestReplica is bestReplica as it was before it counted its
// tiers in place, drawing from rng instead of c.rng.
func referenceBestReplica(c *Cluster, rng *rand.Rand, b *Block, client *xen.VM) (*Datanode, error) {
	var sameVM, samePM, remote []*Datanode
	for _, d := range b.Replicas {
		if !d.Alive() {
			continue
		}
		switch {
		case d.VM == client:
			sameVM = append(sameVM, d)
		case d.VM.Host() == client.Host():
			samePM = append(samePM, d)
		default:
			remote = append(remote, d)
		}
	}
	if len(sameVM) > 0 {
		return sameVM[0], nil
	}
	tiers := [][]*Datanode{samePM, remote}
	if !c.cfg.PMAware {
		tiers = [][]*Datanode{append(samePM, remote...)}
	}
	for _, tier := range tiers {
		if len(tier) > 0 {
			return tier[rng.Intn(len(tier))], nil
		}
	}
	return nil, fmt.Errorf("%w: block %d of %s", ErrNoReplica, b.ID, b.File)
}

// FuzzReplicaChoice checks that choosePipeline and bestReplica pick the
// nodes their references pick and draw the same random numbers: each side
// runs on its own identically seeded rng, and both rngs must be left at
// the same next value. The inputs vary the machine and VM counts, the
// replication factor 1–4, PMAware, which datanodes are decommissioned or
// crashed (two bits each in health), the client (the namenode's VM hosts
// no datanode) and each block's replica list (drawn from layout).
func FuzzReplicaChoice(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), uint8(1), false, uint32(0), uint8(0), int64(7))
	f.Add(int64(2), uint8(2), uint8(9), uint8(2), true, uint32(0x0402), uint8(3), int64(11))
	f.Fuzz(func(t *testing.T, seed int64, pms, vms, repl uint8, pmAware bool, health uint32, clientIdx uint8, layout int64) {
		nPM := 1 + int(pms%4)
		nVM := 2 + int(vms%15) // the namenode's VM and 1–15 datanodes
		tb := newTestbed(1, nPM, nVM, Config{BlockSize: 64e6, Replication: 1 + int(repl%4), PMAware: pmAware})
		c := tb.cluster
		for i, d := range c.Datanodes() {
			switch (health >> (2 * i)) & 3 {
			case 1:
				c.Decommission(d)
			case 2:
				d.VM.Crash()
			}
		}
		lay := rand.New(rand.NewSource(layout))
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		first := int(clientIdx) % nVM
		for i := 0; i < 3; i++ { // a few clients in turn, so scratch is reused
			client := tb.vms[(first+i)%nVM]
			c.rng = got
			pipeline, err := c.choosePipeline(client)
			refPipeline, refErr := referenceChoosePipeline(c, want, client)
			if (err == nil) != (refErr == nil) || fmt.Sprint(pipeline) != fmt.Sprint(refPipeline) {
				t.Fatalf("client %s: pipeline %v (%v), reference %v (%v)", client.Name, pipeline, err, refPipeline, refErr)
			}
			if len(pipeline) != cap(pipeline) {
				t.Fatalf("client %s: pipeline of %d has capacity %d", client.Name, len(pipeline), cap(pipeline))
			}
			// Any replica list, dead and same-machine replicas included.
			dns := c.Datanodes()
			perm := lay.Perm(len(dns))
			b := &Block{ID: i + 1, File: "/f"}
			for _, j := range perm[:1+lay.Intn(len(dns))] {
				b.Replicas = append(b.Replicas, dns[j])
			}
			d, err := c.bestReplica(b, client)
			refD, refErr := referenceBestReplica(c, want, b, client)
			if d != refD || (err == nil) != (refErr == nil) {
				t.Fatalf("client %s, replicas %v: picked %v (%v), reference %v (%v)", client.Name, b.Replicas, d, err, refD, refErr)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("client %s: rng streams diverged: next %d, reference %d", client.Name, g, w)
			}
		}
	})
}
