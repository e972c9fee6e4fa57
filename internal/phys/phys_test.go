package phys

import (
	"fmt"
	"math/rand"
	"testing"

	"vhadoop/internal/sim"
	"vhadoop/internal/vnet"
)

func testSpec() MachineSpec {
	return MachineSpec{
		Cores:     8,
		DRAMBytes: 32e9,
		DiskBW:    100e6,
		NICBW:     125e6,
		NICLat:    0.0001,
		BridgeBW:  500e6,
		BridgeLat: 0.00002,
	}
}

func newTestTopo(t *testing.T, n int) (*sim.Engine, *Topology) {
	t.Helper()
	e := sim.New(1)
	f := vnet.NewFabric(e)
	topo := NewTopology(e, f, 10e9, 0.00001)
	for i := 0; i < n; i++ {
		topo.AddMachine(string(rune('A'+i)), testSpec())
	}
	return e, topo
}

func TestMemoryReservation(t *testing.T) {
	_, topo := newTestTopo(t, 1)
	m := topo.Machines()[0]
	if err := m.ReserveMem(30e9); err != nil {
		t.Fatalf("reserve 30GB on 32GB machine: %v", err)
	}
	if err := m.ReserveMem(4e9); err == nil {
		t.Fatal("over-reservation succeeded")
	}
	m.ReleaseMem(30e9)
	if got := m.MemFree(); got != 32e9 {
		t.Fatalf("free = %v after release", got)
	}
}

func TestMemoryOverReleasePanics(t *testing.T) {
	_, topo := newTestTopo(t, 1)
	m := topo.Machines()[0]
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	m.ReleaseMem(1)
}

func TestIntraMachinePathIsBridgeOnly(t *testing.T) {
	_, topo := newTestTopo(t, 2)
	a := topo.Machines()[0]
	path := topo.Path(a, a).Links()
	if len(path) != 1 || path[0] != a.Bridge {
		t.Fatalf("intra-machine path = %v, want just the bridge", path)
	}
}

func TestCrossMachinePathCrossesNICsAndSwitch(t *testing.T) {
	_, topo := newTestTopo(t, 2)
	a, b := topo.Machines()[0], topo.Machines()[1]
	path := topo.Path(a, b).Links()
	want := []*vnet.Link{a.Bridge, a.NICTx, a.NICProc, topo.backbone, b.NICProc, b.NICRx, b.Bridge}
	if len(path) != len(want) {
		t.Fatalf("path has %d hops, want %d", len(path), len(want))
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("hop %d = %s, want %s", i, path[i].Name(), want[i].Name())
		}
	}
}

func TestHostPathUsesStorageNICs(t *testing.T) {
	_, topo := newTestTopo(t, 2)
	a, b := topo.Machines()[0], topo.Machines()[1]
	// dom0-to-dom0 (NFS, migration): storage NICs plus the switch, no
	// bridges and no netback processing.
	path := topo.HostPath(a, b).Links()
	want := []*vnet.Link{a.StorTx, topo.backbone, b.StorRx}
	if len(path) != len(want) {
		t.Fatalf("dom0 path has %d hops, want %d", len(path), len(want))
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("hop %d = %s, want %s", i, path[i].Name(), want[i].Name())
		}
	}
	// Host-to-host same machine: free.
	if p := topo.HostPath(a, a); p != nil {
		t.Fatalf("same-machine dom0 path = %v, want nil", p)
	}
}

func TestCrossMachineTransferSlowerThanIntra(t *testing.T) {
	e, topo := newTestTopo(t, 2)
	a, b := topo.Machines()[0], topo.Machines()[1]
	var intra, cross sim.Time
	e.Spawn("intra", func(p *sim.Proc) {
		start := p.Now()
		topo.Fabric().Transfer(p, "i", topo.Path(a, a), 500e6)
		intra = p.Now() - start
	})
	e.Run()
	e2 := topo.Engine()
	_ = e2
	e.Spawn("cross", func(p *sim.Proc) {
		start := p.Now()
		topo.Fabric().Transfer(p, "c", topo.Path(a, b), 500e6)
		cross = p.Now() - start
	})
	e.Run()
	if cross <= intra {
		t.Fatalf("cross-machine transfer (%.3fs) not slower than intra (%.3fs)", cross, intra)
	}
}

// Routes are built once per machine pair and shared by every later flow.
func TestRoutesAreCached(t *testing.T) {
	_, topo := newTestTopo(t, 2)
	a, b := topo.Machines()[0], topo.Machines()[1]
	if topo.Path(a, b) != topo.Path(a, b) || topo.HostPath(a, b) != topo.HostPath(a, b) ||
		topo.RelayPath(a, b, a) != topo.RelayPath(a, b, a) {
		t.Fatal("a route was rebuilt on its second lookup")
	}
	if topo.Path(a, b) == topo.Path(b, a) || topo.Path(a, a) == topo.Path(b, b) {
		t.Fatal("distinct machine pairs share a route")
	}
}

// A relayed disk read crosses the filer's host path and then the guest
// path; relaying from a guest on the filer itself needs no host path.
func TestRelayPathJoinsHostAndGuestPaths(t *testing.T) {
	_, topo := newTestTopo(t, 3)
	filer, host, dst := topo.Machines()[0], topo.Machines()[1], topo.Machines()[2]
	check := func(got *vnet.Route, want []*vnet.Link) {
		t.Helper()
		links := got.Links()
		if len(links) != len(want) {
			t.Fatalf("relay has %d hops, want %d", len(links), len(want))
		}
		for i := range want {
			if links[i] != want[i] {
				t.Fatalf("hop %d = %s, want %s", i, links[i].Name(), want[i].Name())
			}
		}
	}
	check(topo.RelayPath(filer, host, dst),
		append(append([]*vnet.Link(nil), topo.HostPath(filer, host).Links()...), topo.Path(host, dst).Links()...))
	// Building this one grows the filer's own route table under it.
	onFiler := topo.RelayPath(filer, filer, dst)
	check(onFiler, topo.Path(filer, dst).Links())
	if topo.RelayPath(filer, filer, dst) != onFiler {
		t.Fatal("the relay from a guest on the filer was not cached")
	}
}

// TestPageCacheFIFOEviction pins the cache's eviction order: oldest insert
// first, where a re-insert of a cached key counts as a new insert and an
// entry larger than the whole cache is not cached (nor does it evict the
// key's cached copy). The scripted steps were recorded when a re-insert
// took its key out of the order by a linear scan; the random run checks
// the cache against that scan, kept here as the reference, over many
// re-inserts, so stale slots are skipped and compacted away.
func TestPageCacheFIFOEviction(t *testing.T) {
	c := NewPageCache(10)
	for i, step := range []struct {
		key   string
		bytes float64
		want  string // the cached keys, in key order
		used  float64
	}{
		{"a", 4, "a", 4},
		{"b", 3, "ab", 7},
		{"c", 3, "abc", 10},  // exactly full: nothing evicted
		{"a", 4, "abc", 10},  // re-insert: a is now the newest
		{"d", 2, "acd", 9},   // evicts b, the oldest
		{"e", 11, "acd", 9},  // larger than the cache: not cached
		{"c", 11, "acd", 9},  // nor a re-insert of a cached key
		{"c", 1, "acd", 7},   // a smaller re-insert: c is the newest
		{"f", 3, "acdf", 10}, // exactly full again
		{"g", 1, "cdfg", 7},  // evicts a
		{"h", 10, "h", 10},   // the size of the cache: evicts all the rest
		{"h", 10, "h", 10},
		{"i", 0, "hi", 10},
		{"j", 1, "ij", 1},
	} {
		c.Insert(step.key, step.bytes)
		got := ""
		for _, k := range "abcdefghij" {
			if c.Contains(string(k)) {
				got += string(k)
			}
		}
		if got != step.want || c.used != step.used {
			t.Fatalf("step %d, insert %s of %v: cached %q using %v, want %q using %v", i, step.key, step.bytes, got, c.used, step.want, step.used)
		}
	}

	// A small cache churns through one block of its order; a large one
	// with many keys spans several.
	for _, tc := range []struct {
		capacity float64
		keys     int
	}{{10, 8}, {400, 200}} {
		ref := &refPageCache{capacity: tc.capacity, entries: map[string]float64{}}
		c := NewPageCache(tc.capacity)
		rng := rand.New(rand.NewSource(1))
		keys := make([]string, tc.keys)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i)
		}
		for i := 0; i < 20000; i++ {
			key, bytes := keys[rng.Intn(len(keys))], float64(rng.Intn(23))/2
			if rng.Intn(4) == 0 {
				key = keys[0] // a hot key, re-inserted over and over
			}
			c.Insert(key, bytes)
			ref.insert(key, bytes)
			for _, k := range keys {
				if _, want := ref.entries[k]; c.Contains(k) != want {
					t.Fatalf("capacity %v, op %d, insert %s of %v: Contains(%s) = %v, want %v", tc.capacity, i, key, bytes, k, !want, want)
				}
			}
			if c.used != ref.used {
				t.Fatalf("capacity %v, op %d: cache uses %v, reference %v", tc.capacity, i, c.used, ref.used)
			}
		}
	}
}

// refPageCache is PageCache as it was before re-inserts went O(1): a
// re-insert scans the order for its key.
type refPageCache struct {
	capacity, used float64
	entries        map[string]float64
	order          []string
}

func (c *refPageCache) insert(key string, bytes float64) {
	if bytes > c.capacity {
		return
	}
	if old, ok := c.entries[key]; ok {
		c.used -= old
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		delete(c.entries, key)
	}
	for c.used+bytes > c.capacity && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		c.used -= c.entries[victim]
		delete(c.entries, victim)
	}
	c.entries[key] = bytes
	c.order = append(c.order, key)
	c.used += bytes
}
