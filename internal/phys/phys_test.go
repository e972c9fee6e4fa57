package phys

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// first, where a re-insert of a cached block counts as a new insert and an
// entry larger than the whole cache is not cached (nor does it evict the
// block's cached copy). The scripted steps, with blocks a to j as ids 1 to
// 10, were recorded when a re-insert took its key out of the order by a
// linear scan; the random run checks the cache against that scan, kept
// here as the reference, over many re-inserts.
func TestPageCacheFIFOEviction(t *testing.T) {
	c := NewPageCache(10)
	for i, step := range []struct {
		key   byte
		bytes float64
		want  string // the cached blocks, in id order
		used  float64
	}{
		{'a', 4, "a", 4},
		{'b', 3, "ab", 7},
		{'c', 3, "abc", 10},  // exactly full: nothing evicted
		{'a', 4, "abc", 10},  // re-insert: a is now the newest
		{'d', 2, "acd", 9},   // evicts b, the oldest
		{'e', 11, "acd", 9},  // larger than the cache: not cached
		{'c', 11, "acd", 9},  // nor a re-insert of a cached block
		{'c', 1, "acd", 7},   // a smaller re-insert: c is the newest
		{'f', 3, "acdf", 10}, // exactly full again
		{'g', 1, "cdfg", 7},  // evicts a
		{'h', 10, "h", 10},   // the size of the cache: evicts all the rest
		{'h', 10, "h", 10},
		{'i', 0, "hi", 10},
		{'j', 1, "ij", 1},
	} {
		c.Insert(uint64(step.key-'a'+1), step.bytes)
		got := ""
		for k := byte('a'); k <= 'j'; k++ {
			if c.Contains(uint64(k - 'a' + 1)) {
				got += string(k)
			}
		}
		if got != step.want || c.used != step.used {
			t.Fatalf("step %d, insert %c of %v: cached %q using %v, want %q using %v", i, step.key, step.bytes, got, c.used, step.want, step.used)
		}
	}

	// A small cache churns through few ids; a large one holds many.
	for _, tc := range []struct {
		capacity float64
		ids      uint64
	}{{10, 8}, {400, 200}} {
		ref := newRefPageCache(tc.capacity)
		c := NewPageCache(tc.capacity)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			id, bytes := 1+uint64(rng.Intn(int(tc.ids))), float64(rng.Intn(23))/2
			if rng.Intn(4) == 0 {
				id = 1 // a hot block, re-inserted over and over
			}
			c.Insert(id, bytes)
			ref.insert(id, bytes)
			if err := ref.diff(c, tc.ids); err != nil {
				t.Fatalf("capacity %v, op %d, insert %d of %v: %v", tc.capacity, i, id, bytes, err)
			}
		}
	}
}

// FuzzPageCache checks PageCache against refPageCache over inserts of
// blocks 1 to n into a cache of capacity 1 to 16. Sizes are tenths from 0
// to two above the capacity, so they include empty entries, exact fits,
// entries larger than the cache and sums that round. After every insert
// the two must cache the same blocks in the same order and use bitwise the
// same bytes.
func FuzzPageCache(f *testing.F) {
	f.Add([]byte{9, 7, 0, 40, 1, 30, 2, 30, 0, 40, 3, 20, 4, 110, 2, 110, 2, 10})
	f.Add([]byte{0, 3, 0, 1, 1, 3, 2, 7, 0, 1, 1, 0, 2, 30})
	// Inputs that caught a lost tail link, a re-insert unlinked after the
	// evictions, and evictions summed before they leave used.
	f.Add([]byte("00xAxA"))
	f.Add([]byte("000A1AxA1A"))
	f.Add([]byte("90210017"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := float64(1 + data[0]%16)
		n := 1 + uint64(data[1]%32)
		ref := newRefPageCache(capacity)
		c := NewPageCache(capacity)
		for i := 2; i+1 < len(data); i += 2 {
			id := 1 + uint64(data[i])%n
			bytes := float64(int(data[i+1])%(10*int(capacity)+21)) / 10
			c.Insert(id, bytes)
			ref.insert(id, bytes)
			if err := ref.diff(c, n); err != nil {
				t.Fatalf("capacity %v, insert %d of %v: %v", capacity, id, bytes, err)
			}
		}
	})
}

// TestPageCacheSteadyStateAllocs pins that a warm cache allocates nothing
// for ids below the highest it has seen.
func TestPageCacheSteadyStateAllocs(t *testing.T) {
	const ids = 64
	warm := func(capacity float64) *PageCache {
		c := NewPageCache(capacity)
		c.Insert(ids, 1)
		return c
	}
	roomy, tight := warm(2*ids), warm(4)
	next, churn := uint64(0), uint64(0)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"new insert", func() { next++; roomy.Insert(next, 1) }},
		{"re-insert", func() { roomy.Insert(1, 1) }},
		{"evicting insert", func() { churn = churn%(ids-1) + 1; tight.Insert(churn, 1) }},
		{"too-large insert", func() { roomy.Insert(2, 3*ids) }},
		{"Contains", func() { roomy.Contains(ids) }},
	} {
		if got := testing.AllocsPerRun(50, tc.op); got != 0 {
			t.Errorf("%s: %v allocations, want 0", tc.name, got)
		}
	}
	if next >= ids || roomy.used != float64(next+1) || tight.used != 4 {
		t.Fatalf("the inserts were not what they claim: %d new inserts, roomy uses %v, tight %v", next, roomy.used, tight.used)
	}
}

// Id 0 means "no caching", so inserting it is a caller's bug; so is an id
// the cache's 32-bit links cannot hold.
func TestPageCacheInsertBadIDPanics(t *testing.T) {
	for _, id := range []uint64{0, 1 << 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%d) did not panic", id)
				}
			}()
			NewPageCache(10).Insert(id, 1)
		}()
	}
}

// refPageCache is PageCache as it was before re-inserts went O(1): a
// re-insert scans the order for its block.
type refPageCache struct {
	capacity, used float64
	entries        map[uint64]float64
	order          []uint64
}

func newRefPageCache(capacity float64) *refPageCache {
	return &refPageCache{capacity: capacity, entries: map[uint64]float64{}}
}

func (c *refPageCache) insert(id uint64, bytes float64) {
	if bytes > c.capacity {
		return
	}
	if old, ok := c.entries[id]; ok {
		c.used -= old
		for i, k := range c.order {
			if k == id {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		delete(c.entries, id)
	}
	for c.used+bytes > c.capacity && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		c.used -= c.entries[victim]
		delete(c.entries, victim)
	}
	c.entries[id] = bytes
	c.order = append(c.order, id)
	c.used += bytes
}

// diff reports how c differs from the reference over ids 0 to n+1: in
// Contains, in its bytes used, compared bitwise, or in its list, walked
// both ways.
func (ref *refPageCache) diff(c *PageCache, n uint64) error {
	for id := uint64(0); id <= n+1; id++ {
		if _, want := ref.entries[id]; c.Contains(id) != want {
			return fmt.Errorf("Contains(%d) = %v, want %v", id, !want, want)
		}
	}
	if math.Float64bits(c.used) != math.Float64bits(ref.used) {
		return fmt.Errorf("the cache uses %v, the reference %v", c.used, ref.used)
	}
	var fwd, back []uint64
	for k := c.head; k != 0 && len(fwd) <= len(c.entries); k = c.entries[k].next {
		fwd = append(fwd, uint64(k))
	}
	for k := c.tail; k != 0 && len(back) <= len(c.entries); k = c.entries[k].prev {
		back = append(back, uint64(k))
	}
	slices.Reverse(back)
	if !slices.Equal(fwd, ref.order) || !slices.Equal(back, ref.order) {
		return fmt.Errorf("the list runs %v forward and %v backward, want %v", fwd, back, ref.order)
	}
	return nil
}
