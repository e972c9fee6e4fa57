package mapreduce

import (
	"fmt"
	"testing"

	"vhadoop/internal/hdfs"
	"vhadoop/internal/nfs"
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
	"vhadoop/internal/vnet"
	"vhadoop/internal/xen"
)

// referenceLocalityScore is the definition LocalityView.Score must equal:
// the blocks × trackers × replicas walk the job service used before the
// view existed, evaluated against live cluster state.
func referenceLocalityScore(c *Cluster, inputs []string) float64 {
	blocks, local := 0, 0
	for _, name := range inputs {
		f, err := c.dfs.Lookup(name)
		if err != nil {
			continue
		}
		for _, b := range f.Blocks {
			blocks++
			for _, tr := range c.trackers {
				if tr.Alive() && tr.mapFree > 0 && c.dfs.IsLocal(b, tr.VM) {
					local++
					break
				}
			}
		}
	}
	if blocks == 0 {
		return 0
	}
	return float64(local) / float64(blocks)
}

// localityBed is a master plus four workers (datanode and tasktracker
// each) and a fifth VM that is a datanode only. Its three files have
// their replicas pinned, so no case depends on the placement RNG:
// /one = 1 block on dn0+dn1, /two = 2 blocks on dn0 and dn2, /far = 1
// block on the tracker-less dn4.
type localityBed struct {
	c   *Cluster
	dns []*hdfs.Datanode
}

func newLocalityBed(t *testing.T) *localityBed {
	t.Helper()
	e := sim.New(1)
	topo := phys.NewTopology(e, vnet.NewFabric(e), 10e9, 0.00001)
	spec := phys.MachineSpec{
		Cores: 16, DRAMBytes: 32e9, DiskBW: 100e6,
		NICBW: 119e6, NICLat: 0.0001, BridgeBW: 500e6, BridgeLat: 0.00002,
	}
	pm := topo.AddMachine("pm1", spec)
	mgr := xen.NewManager(topo, nfs.NewServer(topo, topo.AddMachine("filer", spec)), xen.DefaultConfig())
	master := mgr.MustDefine("vm0", 1024e6, pm)
	dfs := hdfs.NewCluster(hdfs.Config{BlockSize: 64e6, Replication: 1}, master)
	bed := &localityBed{c: NewCluster(e, DefaultConfig(), master, dfs)}
	for i := 1; i <= 5; i++ {
		vm := mgr.MustDefine(fmt.Sprintf("vm%d", i), 1024e6, pm)
		bed.dns = append(bed.dns, dfs.AddDatanode(vm))
		if i <= 4 {
			bed.c.AddTracker(vm)
		}
	}
	e.Spawn("stage", func(p *sim.Proc) {
		for _, f := range []struct {
			name string
			size float64
			pins [][]int
		}{
			{"/one", 10e6, [][]int{{0, 1}}},
			{"/two", 100e6, [][]int{{0}, {2}}},
			{"/far", 10e6, [][]int{{4}}},
		} {
			file, err := dfs.Write(p, master, f.name, f.size, nil)
			if err != nil || len(file.Blocks) != len(f.pins) {
				t.Errorf("staging %s: %d blocks, err %v", f.name, len(file.Blocks), err)
				return
			}
			for bi, pin := range f.pins {
				file.Blocks[bi].Replicas = nil
				for _, di := range pin {
					file.Blocks[bi].Replicas = append(file.Blocks[bi].Replicas, bed.dns[di])
				}
			}
		}
	})
	e.Run()
	return bed
}

// TestLocalityViewMatchesReference refreshes one view through every case,
// as the job service refreshes its one view every tick: each case refreshes
// it on the case's fresh, idle cluster, applies the mutation and refreshes
// again. A slot marked free by an earlier state — the previous case's
// cluster or this one before the mutation — must not survive the refresh.
func TestLocalityViewMatchesReference(t *testing.T) {
	all := []string{"/one", "/two", "/far", "/missing"}
	cases := []struct {
		name   string
		mutate func(b *localityBed)
		inputs []string
		want   float64
	}{
		{"idle cluster", nil, []string{"/one", "/two"}, 1},
		{"empty inputs", nil, nil, 0},
		{"input not yet in HDFS", nil, []string{"/missing"}, 0},
		{"missing input beside a staged one", nil, []string{"/missing", "/one"}, 1},
		{"datanode on a VM with no tasktracker", nil, []string{"/far"}, 0},
		{"all slots busy", func(b *localityBed) {
			for _, tr := range b.c.trackers {
				tr.mapFree = 0
			}
		}, []string{"/one", "/two"}, 0},
		{"slot count reconfigured below the running tasks", func(b *localityBed) {
			b.c.trackers[0].mapFree = -1
		}, []string{"/two"}, 0.5},
		{"two-block file with one local block", func(b *localityBed) {
			b.c.trackers[0].mapFree = 0
		}, []string{"/two"}, 0.5},
		{"second replica still local", func(b *localityBed) {
			b.c.trackers[0].mapFree = 0
		}, []string{"/one"}, 1},
		{"crashed tracker VM", func(b *localityBed) {
			b.c.trackers[0].VM.Crash()
		}, []string{"/one", "/two"}, 2.0 / 3},
		{"tracker declared dead on a live VM", func(b *localityBed) {
			b.c.trackers[2].dead = true
		}, []string{"/two"}, 0.5},
		{"decommissioned datanode on a live VM", func(b *localityBed) {
			b.c.dfs.Decommission(b.dns[2])
		}, []string{"/two"}, 0.5},
	}
	var view LocalityView
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bed := newLocalityBed(t)
			bed.c.RefreshLocalityView(&view)
			if tc.mutate != nil {
				tc.mutate(bed)
			}
			bed.c.RefreshLocalityView(&view)
			if got := view.Score(tc.inputs); got != tc.want {
				t.Errorf("Score(%v) = %v, want %v", tc.inputs, got, tc.want)
			}
			// Whatever the state, every run of inputs (the empty one
			// included) agrees with the reference.
			for n := 0; n <= len(all); n++ {
				for i := 0; i+n <= len(all); i++ {
					in := all[i : i+n]
					if got, ref := view.Score(in), referenceLocalityScore(bed.c, in); got != ref {
						t.Errorf("Score(%v) = %v, reference %v", in, got, ref)
					}
				}
			}
		})
	}
}

// TestRefreshLocalityViewZeroAllocs gates the job service's per-tick view
// refresh: once the view's buffer is sized, a refresh allocates nothing.
func TestRefreshLocalityViewZeroAllocs(t *testing.T) {
	bed := newLocalityBed(t)
	var view LocalityView
	bed.c.RefreshLocalityView(&view)
	if n := testing.AllocsPerRun(100, func() { bed.c.RefreshLocalityView(&view) }); n != 0 {
		t.Fatalf("RefreshLocalityView: %v allocs per call on a warm view, want 0", n)
	}
	if got := view.Score([]string{"/one"}); got != 1 {
		t.Fatalf("Score(/one) = %v after the refreshes, want 1", got)
	}
}
