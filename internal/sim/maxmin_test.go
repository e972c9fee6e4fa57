package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceFairShareRates is FairShare.recomputeRates as it stood before
// FairShare became a front-end over MaxMin: weighted water-filling over one
// resource with one per-job cap. It returns the per-job rates and their sum
// in job order (the old Utilization numerator).
func referenceFairShareRates(capacity, perJobCap float64, weights []float64) ([]float64, float64) {
	type fsJob struct{ weight, rate float64 }
	jobs := make([]*fsJob, len(weights))
	for i, w := range weights {
		jobs[i] = &fsJob{weight: w}
	}
	residual := capacity
	active := make([]*fsJob, len(jobs))
	copy(active, jobs)
	for len(active) > 0 {
		var wsum float64
		for _, j := range active {
			wsum += j.weight
		}
		capped := false
		next := active[:0]
		for _, j := range active {
			share := residual * j.weight / wsum
			if perJobCap > 0 && share >= perJobCap {
				j.rate = perJobCap
				residual -= perJobCap
				capped = true
			} else {
				j.rate = share
				next = append(next, j)
			}
		}
		active = next
		if !capped {
			break
		}
	}
	rates := make([]float64, len(jobs))
	total := 0.0
	for i, j := range jobs {
		rates[i] = j.rate
		total += j.rate
	}
	return rates, total
}

// referenceFabricRates is vnet.Fabric.recomputeRates as it stood before the
// fabric became a front-end over MaxMin, with links named by their creation
// index: unweighted max-min over multi-link paths, tracked in maps.
func referenceFabricRates(bandwidth []float64, paths [][]int) (rates, inUse []float64) {
	rates = make([]float64, len(paths))
	inUse = make([]float64, len(bandwidth))
	frozen := make([]bool, len(paths))
	residual := make(map[int]float64, len(bandwidth))
	crossing := make(map[int]int, len(bandwidth))
	for _, path := range paths {
		for _, l := range path {
			if _, ok := residual[l]; !ok {
				residual[l] = bandwidth[l]
			}
			crossing[l]++
		}
	}
	unfrozen := len(paths)
	for unfrozen > 0 {
		bottleneck := -1
		best := Forever
		for l := range bandwidth {
			n := crossing[l]
			if n == 0 {
				continue
			}
			if share := residual[l] / float64(n); share < best {
				best = share
				bottleneck = l
			}
		}
		if bottleneck < 0 {
			break
		}
		for i, path := range paths {
			if frozen[i] {
				continue
			}
			onBottleneck := false
			for _, l := range path {
				if l == bottleneck {
					onBottleneck = true
					break
				}
			}
			if !onBottleneck {
				continue
			}
			frozen[i] = true
			rates[i] = best
			unfrozen--
			for _, l := range path {
				residual[l] -= best
				if residual[l] < 0 {
					residual[l] = 0
				}
				crossing[l]--
				inUse[l] += best
			}
		}
	}
	return rates, inUse
}

type testAct struct {
	cap  float64
	uses []int
}

// solve loads a solver with the given resources and activities and runs
// one rate computation, without touching the event queue.
func solve(capacity []float64, acts []testAct) *MaxMin {
	s := NewMaxMin(New(1), "test", 1e-9, 1e-9)
	for _, c := range capacity {
		s.AddResource(c)
	}
	for _, a := range acts {
		s.acts = append(s.acts, &Activity{remaining: 1, rateCap: a.cap, uses: a.uses})
	}
	s.recomputeRates()
	return s
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// The solver reproduces the old FairShare arithmetic bit for bit on the
// pools production builds: CPU pools of whole cores with a one-core cap per
// job, and uncapped disks and memory buses of any capacity.
func TestMaxMinMatchesReferenceFairShare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		capacity, perJobCap := rng.Float64()*1e9+1, 0.0
		if i%2 == 0 {
			capacity, perJobCap = float64(1+rng.Intn(32)), 1
		}
		n := 1 + rng.Intn(48)
		weights := make([]float64, n)
		acts := make([]testAct, n)
		for j := range acts {
			weights[j] = 1
			acts[j] = testAct{cap: perJobCap, uses: []int{0}}
		}
		want, wantUse := referenceFairShareRates(capacity, perJobCap, weights)
		s := solve([]float64{capacity}, acts)
		for j, a := range s.acts {
			if !sameBits(a.rate, want[j]) {
				t.Fatalf("capacity %v cap %v n %d: job %d rate %v, reference %v", capacity, perJobCap, n, j, a.rate, want[j])
			}
		}
		if !sameBits(s.res[0].inUse, wantUse) {
			t.Fatalf("capacity %v cap %v n %d: in use %v, reference %v", capacity, perJobCap, n, s.res[0].inUse, wantUse)
		}
	}
}

// The solver reproduces the old fabric arithmetic bit for bit on uncapped
// flows over multi-link paths, including links of equal bandwidth, so the
// creation-order tie-break is exercised.
func TestMaxMinMatchesReferenceFabric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	typical := []float64{125e6, 1e9, 1.25e9, 62.5e6}
	for i := 0; i < 4000; i++ {
		bw := make([]float64, 1+rng.Intn(16))
		for l := range bw {
			bw[l] = typical[rng.Intn(len(typical))]
			if rng.Intn(3) == 0 {
				bw[l] *= rng.Float64() // a degraded link
			}
		}
		paths := make([][]int, 1+rng.Intn(64))
		acts := make([]testAct, len(paths))
		for j := range paths {
			paths[j] = rng.Perm(len(bw))[:1+rng.Intn(min(5, len(bw)))]
			acts[j] = testAct{uses: paths[j]}
		}
		wantRates, wantUse := referenceFabricRates(bw, paths)
		s := solve(bw, acts)
		for j, a := range s.acts {
			if !sameBits(a.rate, wantRates[j]) {
				t.Fatalf("state %d: flow %d rate %v, reference %v", i, j, a.rate, wantRates[j])
			}
		}
		for l := range bw {
			if !sameBits(s.res[l].inUse, wantUse[l]) {
				t.Fatalf("state %d: link %d in use %v, reference %v", i, l, s.res[l].inUse, wantUse[l])
			}
		}
	}
}

// checkMaxMin is the max-min oracle: no resource is allocated beyond its
// capacity, no activity beyond its cap, and every activity is either at its
// cap or crosses a saturated resource on which no activity has a higher
// rate. Comparisons allow a relative 1e-12 of floating-point slack.
func checkMaxMin(s *MaxMin) error {
	const rel = 1e-12
	sum := make([]float64, len(s.res))
	for _, a := range s.acts {
		for _, r := range a.uses {
			sum[r] += a.rate
		}
	}
	for r, res := range s.res {
		if sum[r] > res.capacity*(1+rel) {
			return fmt.Errorf("resource %d: allocated %v of capacity %v", r, sum[r], res.capacity)
		}
	}
	for i, a := range s.acts {
		if a.rate < 0 || a.rateCap > 0 && a.rate > a.rateCap {
			return fmt.Errorf("activity %d: rate %v, cap %v", i, a.rate, a.rateCap)
		}
		if a.rateCap > 0 && a.rate == a.rateCap {
			continue
		}
		limited := false
		for _, r := range a.uses {
			if sum[r] < s.res[r].capacity*(1-rel) {
				continue
			}
			highest := 0.0
			for _, b := range s.acts {
				if crosses(b, r) && b.rate > highest {
					highest = b.rate
				}
			}
			if highest <= a.rate*(1+rel) {
				limited = true
				break
			}
		}
		if !limited {
			return fmt.Errorf("activity %d: rate %v below its cap %v and not limited by a saturated resource", i, a.rate, a.rateCap)
		}
	}
	return nil
}

func TestMaxMinOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		capacity := make([]float64, 1+rng.Intn(10))
		for r := range capacity {
			capacity[r] = math.Exp(rng.NormFloat64() * 3)
		}
		acts := make([]testAct, 1+rng.Intn(40))
		for j := range acts {
			acts[j].uses = rng.Perm(len(capacity))[:1+rng.Intn(min(4, len(capacity)))]
			if rng.Intn(2) == 0 {
				acts[j].cap = math.Exp(rng.NormFloat64() * 3)
			}
		}
		s := solve(capacity, acts)
		if err := checkMaxMin(s); err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		// The oracle is not vacuous: an uncapped activity given more than
		// its share breaks it.
		for _, a := range s.acts {
			if a.rateCap == 0 {
				a.rate *= 1.01
				if checkMaxMin(s) == nil {
					t.Fatalf("state %d: oracle accepted a rate raised by 1%%", i)
				}
				break
			}
		}
	}
}

// decodeMaxMin turns fuzz input into a solver state: one byte for the
// number of resources (1-8), two bytes per capacity in [1, 257), then two
// bytes per activity: a bitmask of the resources it uses and a cap in
// [0, 16), where 0 means uncapped.
func decodeMaxMin(data []byte) ([]float64, []testAct) {
	next := func() float64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return float64(b)
	}
	capacity := make([]float64, int(next())%8+1)
	for r := range capacity {
		capacity[r] = 1 + next() + next()/256
	}
	var acts []testAct
	for len(data) > 0 && len(acts) < 64 {
		mask, c := int(next()), next()
		var uses []int
		for r := range capacity {
			if mask>>r&1 == 1 {
				uses = append(uses, r)
			}
		}
		if len(uses) == 0 {
			uses = []int{mask % len(capacity)}
		}
		acts = append(acts, testAct{cap: c / 16, uses: uses})
	}
	return capacity, acts
}

func FuzzMaxMin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		capacity, acts := decodeMaxMin(data)
		if err := checkMaxMin(solve(capacity, acts)); err != nil {
			t.Fatal(err)
		}
	})
}

// deferredOp is one scheduled call on a solver: a Start, or a SetCapacity
// when setCap is set.
type deferredOp struct {
	at            Time
	setCap        bool
	r             int     // SetCapacity's resource
	capacity      float64 // SetCapacity's capacity
	work, rateCap float64
	uses          []int
	lag           Time
}

// The values decodeDeferred draws from: powers of two and small integers,
// so completions and starts meet on shared instants exactly, and works
// between the solver's eps (1e-12) and maxCap*minTick (at least 0.5e-9),
// which make a pass re-rate at once.
var (
	deferredCaps  = [...]float64{0.5, 1, 2, 4}
	deferredRates = [...]float64{0, 0.25, 1, 2} // 0: uncapped
	deferredWorks = [...]float64{1e-10, 4e-10, 0.5, 1, 2, 3, 4, 8}
)

// decodeDeferred turns fuzz input into a solver schedule: one byte for the
// number of resources (1-4) and one per capacity, then three bytes per
// operation. The first byte's low three bits give its instant, 0 to 3.5 in
// halves, and its next two bits make one in four a SetCapacity. A Start
// takes its work, its rate cap and a lag of 0 or 0.5 from the second byte
// and its resources from the third, a bitmask; a SetCapacity takes its
// resource from the second byte and its capacity from the third.
func decodeDeferred(data []byte) ([]float64, []deferredOp) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	capacity := make([]float64, next()%4+1)
	for r := range capacity {
		capacity[r] = deferredCaps[next()%len(deferredCaps)]
	}
	var ops []deferredOp
	for len(data) > 0 && len(ops) < 64 {
		kind, arg, mask := next(), next(), next()
		op := deferredOp{at: Time(kind&7) / 2}
		if kind>>3&3 == 0 {
			op.setCap, op.r, op.capacity = true, arg%len(capacity), deferredCaps[mask%len(deferredCaps)]
			ops = append(ops, op)
			continue
		}
		op.work = deferredWorks[arg&7]
		op.rateCap = deferredRates[arg>>3&3]
		op.lag = Time(arg>>5&1) / 2
		for r := range capacity {
			if mask>>r&1 == 1 {
				op.uses = append(op.uses, r)
			}
		}
		if len(op.uses) == 0 {
			op.uses = []int{mask % len(capacity)}
		}
		ops = append(ops, op)
	}
	return capacity, ops
}

type completion struct {
	op int
	at Time
}

// runDeferred plays ops on a fresh engine and returns the completions in
// the order their latches' callbacks ran, and the engine's final sequence
// number. With eager set, Utilization follows every call, which re-rates at
// once whatever the call's pass put off.
func runDeferred(capacity []float64, ops []deferredOp, eager bool) ([]completion, uint64) {
	e := New(1)
	s := NewMaxMin(e, "deferred", 1e-12, 1e-9)
	for _, c := range capacity {
		s.AddResource(c)
	}
	acts := make([]Activity, len(ops))
	dones := make([]Done, len(ops))
	cbs := make([]Callback, len(ops))
	var log []completion
	for i, op := range ops {
		e.At(op.at, func() {
			if op.setCap {
				s.SetCapacity(op.r, op.capacity)
			} else {
				cbs[i] = NewCallback(e, func() { log = append(log, completion{i, e.Now()}) })
				dones[i].FiredOr(&cbs[i])
				s.Start(&acts[i], op.work, op.rateCap, op.uses, &dones[i], op.lag)
			}
			if eager {
				s.Utilization(0)
			}
		})
	}
	e.Run()
	return log, e.seq
}

// Putting a same-instant re-rate off to the flush changes nothing a run can
// see: the completions, their order, their times to the bit, and every
// sequence number the engine draws match a run that re-rates at once.
func FuzzMaxMinDeferred(f *testing.F) {
	f.Add([]byte{0, 1, 8, 3, 1, 8, 4, 1, 8, 5, 1})                  // three starts at one instant
	f.Add([]byte{1, 1, 1, 8, 3, 1, 10, 3, 2})                       // a start as a completion falls due
	f.Add([]byte{0, 2, 8, 4, 1, 8, 0, 1, 8, 1, 1, 9, 2, 1})         // tiny works next to long ones
	f.Add([]byte{2, 0, 1, 2, 8, 4, 7, 9, 35, 6, 1, 1, 3, 11, 2, 2}) // retunes, caps and lags
	f.Fuzz(func(t *testing.T, data []byte) {
		capacity, ops := decodeDeferred(data)
		got, gotSeq := runDeferred(capacity, ops, false)
		want, wantSeq := runDeferred(capacity, ops, true)
		if len(got) != len(want) {
			t.Fatalf("%d completions, eager %d", len(got), len(want))
		}
		for i := range got {
			if got[i].op != want[i].op || !sameBits(got[i].at, want[i].at) {
				t.Fatalf("completion %d: op %d at %v, eager op %d at %v", i, got[i].op, got[i].at, want[i].op, want[i].at)
			}
		}
		if gotSeq != wantSeq {
			t.Fatalf("final seq %d, eager %d", gotSeq, wantSeq)
		}
	})
}
