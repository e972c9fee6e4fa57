package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// referenceMaxMin is the solver as it stood before classes became its unit,
// less its accounting (carried work, busy time), which no test compares:
// it keeps every activity in insertion order and walks each one in every
// step, and it re-rates at every pass, as the class solver does. The class
// solver rounds n*rate and finish-v differently from its repeated
// subtractions, so tests compare the two within refTol.
type referenceMaxMin struct {
	engine  *Engine
	eps     float64
	minTick Time
	res     []resource
	acts    []*refActivity

	lastUpdate Time
	next       event
}

type refActivity struct {
	remaining float64
	rateCap   float64
	rate      float64
	uses      []int
	done      *Done
	lag       Time
	frozen    bool
}

func newReferenceMaxMin(e *Engine, eps float64, minTick Time) *referenceMaxMin {
	s := &referenceMaxMin{engine: e, eps: eps, minTick: minTick, lastUpdate: e.now}
	s.next = event{index: -1, keep: true, fn: s.complete}
	return s
}

func (s *referenceMaxMin) AddResource(capacity float64) int {
	s.res = append(s.res, resource{capacity: capacity, since: s.engine.now})
	return len(s.res) - 1
}

func (s *referenceMaxMin) SetCapacity(r int, capacity float64) {
	s.advance()
	s.res[r].capacity = capacity
	s.reschedule()
}

func (s *referenceMaxMin) Start(a *refActivity, work, rateCap float64, uses []int, done *Done, lag Time) {
	s.advance()
	*a = refActivity{remaining: work, rateCap: rateCap, uses: uses, done: done, lag: lag}
	s.acts = append(s.acts, a)
	s.reschedule()
}

func (s *referenceMaxMin) advance() {
	now := s.engine.now
	dt := now - s.lastUpdate
	s.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, a := range s.acts {
		a.remaining -= min(a.rate*dt, a.remaining)
	}
}

func (s *referenceMaxMin) recomputeRates() {
	for i := range s.res {
		r := &s.res[i]
		r.inUse, r.residual, r.crossing = 0, r.capacity, 0
	}
	anyCap := false
	for _, a := range s.acts {
		a.frozen = false
		anyCap = anyCap || a.rateCap > 0
		for _, r := range a.uses {
			s.res[r].crossing++
		}
	}
	for unfrozen := len(s.acts); unfrozen > 0; {
		b, best := -1, Forever
		for i := range s.res {
			r := &s.res[i]
			if r.crossing == 0 {
				continue
			}
			if share := r.residual / float64(r.crossing); share < best {
				b, best = i, share
			}
		}
		capped := false
		for i := 0; anyCap && i < len(s.acts); i++ {
			if a := s.acts[i]; !a.frozen && a.rateCap > 0 && a.rateCap <= best {
				s.freeze(a, a.rateCap)
				unfrozen--
				capped = true
			}
		}
		if capped {
			continue
		}
		if b < 0 {
			break
		}
		for _, a := range s.acts {
			if !a.frozen && slices.Contains(a.uses, b) {
				s.freeze(a, best)
				unfrozen--
			}
		}
	}
}

func (s *referenceMaxMin) freeze(a *refActivity, rate float64) {
	a.frozen, a.rate = true, rate
	for _, i := range a.uses {
		r := &s.res[i]
		r.residual -= rate
		if r.residual < 0 {
			r.residual = 0
		}
		r.crossing--
		r.inUse += rate
	}
}

func (s *referenceMaxMin) complete() {
	s.advance()
	s.reschedule()
}

func (s *referenceMaxMin) reschedule() {
	e := s.engine
	live := s.acts[:0]
	for _, a := range s.acts {
		if a.remaining <= s.eps || a.remaining <= a.rate*s.minTick {
			if a.lag > 0 {
				e.FireAfter(a.lag, a.done)
			} else {
				a.done.fire()
			}
			continue
		}
		live = append(live, a)
	}
	clear(s.acts[len(live):])
	s.acts = live
	if len(live) == 0 {
		e.disarm(&s.next)
		for i := range s.res {
			s.res[i].inUse = 0
		}
		return
	}
	s.recomputeRates()
	minT := Forever
	for _, a := range s.acts {
		if a.rate <= 0 {
			continue
		}
		if t := a.remaining / a.rate; t < minT {
			minT = t
		}
	}
	if minT >= Forever {
		panic("sim: reference solver stalled")
	}
	if minT < s.minTick {
		minT = s.minTick
	}
	e.rearm(&s.next, e.now+minT)
}

// refTol is the relative tolerance between the class solver and
// referenceMaxMin.
const refTol = 1e-9

// near reports whether a and b agree within refTol of the larger.
func near(a, b float64) bool {
	return math.Abs(a-b) <= refTol*max(math.Abs(a), math.Abs(b))
}

type testAct struct {
	cap  float64
	uses []int
}

// ratedAct is an activity's rate, cap and resources after a rate
// computation.
type ratedAct struct {
	rate, cap float64
	uses      []int
}

// solve loads a solver with the given resources and activities and runs
// one rate computation, without touching the event queue. Activities that
// share a uses slice and a cap share a class. It returns the solver and
// each activity's rate in the given order.
func solve(capacity []float64, acts []testAct) (*MaxMin, []ratedAct) {
	s := NewMaxMin(New(1), "test", 1e-9, 1e-9)
	for _, c := range capacity {
		s.AddResource(c)
	}
	all := make([]Activity, len(acts))
	for i, a := range acts {
		c := s.classFor(a.uses, a.cap)
		s.classes[c].n++
		all[i] = Activity{finish: 1, stamp: uint64(i), cls: c, inService: true}
		s.classes[c].head = meld(s.classes[c].head, &all[i])
	}
	s.recomputeRates()
	rates := make([]ratedAct, len(acts))
	for _, c := range s.classes[:s.live] {
		for _, a := range members(c.head, nil) {
			rates[a.stamp] = ratedAct{c.rate, c.rateCap, c.uses}
		}
	}
	return s, rates
}

// members appends the activities of the heap rooted at a to list.
func members(a *Activity, list []*Activity) []*Activity {
	for ; a != nil; a = a.sibling {
		list = members(a.child, append(list, a))
	}
	return list
}

// solveReference is solve on referenceMaxMin.
func solveReference(capacity []float64, acts []testAct) (*referenceMaxMin, []ratedAct) {
	s := newReferenceMaxMin(New(1), 1e-9, 1e-9)
	for _, c := range capacity {
		s.AddResource(c)
	}
	for _, a := range acts {
		s.acts = append(s.acts, &refActivity{remaining: 1, rateCap: a.cap, uses: a.uses})
	}
	s.recomputeRates()
	rates := make([]ratedAct, len(acts))
	for i, a := range s.acts {
		rates[i] = ratedAct{a.rate, a.rateCap, a.uses}
	}
	return s, rates
}

// compareReference checks solve against solveReference: every rate and
// every resource's allocation within refTol.
func compareReference(capacity []float64, acts []testAct) error {
	s, got := solve(capacity, acts)
	ref, want := solveReference(capacity, acts)
	for i := range got {
		if !near(got[i].rate, want[i].rate) {
			return fmt.Errorf("activity %d: rate %v, reference %v", i, got[i].rate, want[i].rate)
		}
	}
	for r := range capacity {
		if !near(s.res[r].inUse, ref.res[r].inUse) {
			return fmt.Errorf("resource %d: in use %v, reference %v", r, s.res[r].inUse, ref.res[r].inUse)
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// The reference solver reproduces the old FairShare arithmetic bit for bit
// on the pools production builds: CPU pools of whole cores with a one-core
// cap per job, and uncapped disks and memory buses of any capacity. The
// class solver, whose jobs share one uses slice as FairShare's do, gives
// every job the same rate and the pool the same allocation within refTol.
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
		uses := []int{0}
		for j := range acts {
			weights[j] = 1
			acts[j] = testAct{cap: perJobCap, uses: uses}
		}
		want, wantUse := referenceFairShareRates(capacity, perJobCap, weights)
		ref, rates := solveReference([]float64{capacity}, acts)
		for j, a := range rates {
			if !sameBits(a.rate, want[j]) {
				t.Fatalf("capacity %v cap %v n %d: reference solver job %d rate %v, reference %v", capacity, perJobCap, n, j, a.rate, want[j])
			}
		}
		if !sameBits(ref.res[0].inUse, wantUse) {
			t.Fatalf("capacity %v cap %v n %d: reference solver in use %v, reference %v", capacity, perJobCap, n, ref.res[0].inUse, wantUse)
		}
		if err := compareReference([]float64{capacity}, acts); err != nil {
			t.Fatalf("capacity %v cap %v n %d: %v", capacity, perJobCap, n, err)
		}
	}
}

// The reference solver reproduces the old fabric arithmetic bit for bit on
// uncapped flows over multi-link paths, including links of equal
// bandwidth, so the creation-order tie-break is exercised, and the class
// solver matches it within refTol. The states are drawn twice: once with
// a path of its own for every flow, so every class is a single flow and
// filling takes many rounds, and once with flows drawn from a few shared
// routes, as vnet's are.
func TestMaxMinMatchesReferenceFabric(t *testing.T) {
	typical := []float64{125e6, 1e9, 1.25e9, 62.5e6}
	for _, shared := range []bool{false, true} {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 4000; i++ {
			bw := make([]float64, 1+rng.Intn(16))
			for l := range bw {
				bw[l] = typical[rng.Intn(len(typical))]
				if rng.Intn(3) == 0 {
					bw[l] *= rng.Float64() // a degraded link
				}
			}
			path := func() []int { return rng.Perm(len(bw))[:1+rng.Intn(min(5, len(bw)))] }
			var routes [][]int
			if shared {
				routes = make([][]int, 1+rng.Intn(8))
				for j := range routes {
					routes[j] = path()
				}
			}
			paths := make([][]int, 1+rng.Intn(64))
			acts := make([]testAct, len(paths))
			for j := range paths {
				if shared {
					paths[j] = routes[rng.Intn(len(routes))]
				} else {
					paths[j] = path()
				}
				acts[j] = testAct{uses: paths[j]}
			}
			wantRates, wantUse := referenceFabricRates(bw, paths)
			ref, rates := solveReference(bw, acts)
			for j, a := range rates {
				if !sameBits(a.rate, wantRates[j]) {
					t.Fatalf("shared %v state %d: reference solver flow %d rate %v, reference %v", shared, i, j, a.rate, wantRates[j])
				}
			}
			for l := range bw {
				if !sameBits(ref.res[l].inUse, wantUse[l]) {
					t.Fatalf("shared %v state %d: reference solver link %d in use %v, reference %v", shared, i, l, ref.res[l].inUse, wantUse[l])
				}
			}
			if err := compareReference(bw, acts); err != nil {
				t.Fatalf("shared %v state %d: %v", shared, i, err)
			}
		}
	}
}

// checkMaxMin is the max-min oracle: no resource is allocated beyond its
// capacity, no activity beyond its cap, and every activity is either at its
// cap or crosses a saturated resource on which no activity has a higher
// rate. Comparisons allow a relative 1e-12 of floating-point slack.
func checkMaxMin(capacity []float64, acts []ratedAct) error {
	const rel = 1e-12
	sum := make([]float64, len(capacity))
	for _, a := range acts {
		for _, r := range a.uses {
			sum[r] += a.rate
		}
	}
	for r, c := range capacity {
		if sum[r] > c*(1+rel) {
			return fmt.Errorf("resource %d: allocated %v of capacity %v", r, sum[r], c)
		}
	}
	for i, a := range acts {
		if a.rate < 0 || a.cap > 0 && a.rate > a.cap {
			return fmt.Errorf("activity %d: rate %v, cap %v", i, a.rate, a.cap)
		}
		if a.cap > 0 && a.rate == a.cap {
			continue
		}
		limited := false
		for _, r := range a.uses {
			if sum[r] < capacity[r]*(1-rel) {
				continue
			}
			highest := 0.0
			for _, b := range acts {
				if slices.Contains(b.uses, r) && b.rate > highest {
					highest = b.rate
				}
			}
			if highest <= a.rate*(1+rel) {
				limited = true
				break
			}
		}
		if !limited {
			return fmt.Errorf("activity %d: rate %v below its cap %v and not limited by a saturated resource", i, a.rate, a.cap)
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
		_, rates := solve(capacity, acts)
		if err := checkMaxMin(capacity, rates); err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		// The oracle is not vacuous: an uncapped activity given more than
		// its share breaks it.
		for j := range rates {
			if rates[j].cap == 0 {
				rates[j].rate *= 1.01
				if checkMaxMin(capacity, rates) == nil {
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
// [0, 16), where 0 means uncapped. Activities with one bitmask share one
// uses slice, so those with one cap too share a class.
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
	var routes [256][]int
	var acts []testAct
	for len(data) > 0 && len(acts) < 64 {
		mask, c := int(next()), next()
		if routes[mask] == nil {
			for r := range capacity {
				if mask>>r&1 == 1 {
					routes[mask] = append(routes[mask], r)
				}
			}
			if len(routes[mask]) == 0 {
				routes[mask] = []int{mask % len(capacity)}
			}
		}
		acts = append(acts, testAct{cap: c / 16, uses: routes[mask]})
	}
	return capacity, acts
}

// The class solver's rates are max-min fair and match the reference
// solver's within refTol.
func FuzzMaxMin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		capacity, acts := decodeMaxMin(data)
		_, rates := solve(capacity, acts)
		if err := checkMaxMin(capacity, rates); err != nil {
			t.Fatal(err)
		}
		if err := compareReference(capacity, acts); err != nil {
			t.Fatal(err)
		}
	})
}

// solverOp is one scheduled call on a solver: a Start, or a SetCapacity
// when setCap is set.
type solverOp struct {
	at            Time
	setCap        bool
	r             int     // SetCapacity's resource
	capacity      float64 // SetCapacity's capacity
	work, rateCap float64
	uses          []int
	lag           Time
}

// The capacities and rate caps schedules draw from: powers of two, so
// completions and starts meet on shared instants exactly.
var (
	solverCaps  = [...]float64{0.5, 1, 2, 4}
	solverRates = [...]float64{0, 0.25, 1, 2} // 0: uncapped
)

type completion struct {
	op int
	at Time
}

// runSolver plays ops on a fresh engine, on a solver with residue eps,
// and returns the completions in the order their latches' callbacks ran.
func runSolver(capacity []float64, ops []solverOp, eps float64) []completion {
	e := New(1)
	s := NewMaxMin(e, "solver", eps, 1e-9)
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
				return
			}
			cbs[i] = NewCallback(e, func() { log = append(log, completion{i, e.Now()}) })
			dones[i].FiredOr(&cbs[i])
			s.Start(&acts[i], op.work, op.rateCap, op.uses, &dones[i], op.lag)
		})
	}
	e.Run()
	return log
}

// The values decodeClasses draws from. Works run from below the fuzz
// solver's eps through the band a rate of at least 0.25 retires within
// minTick to long ones, so a class that keeps members for long enough
// pushes its clock past classesEps*2^50 = 64 and is rebased.
var classesWorks = [...]float64{0x1p-45, 0x1p-40, 0.5, 1, 3, 8, 40, 100}

// classesEps is the fuzz solver's residue eps, 2^-44.
const classesEps = 0x1p-44

// decodeClasses turns fuzz input into a solver schedule whose starts share
// a few routes and caps: one byte for the number of resources (1-4) and
// one per capacity, four route bitmasks, then three bytes per operation.
// The first byte's low five bits give its instant, 0 to 62 in steps of 2,
// and its next two bits make one in four a SetCapacity. A Start takes its
// route, its rate cap and a lag of 0 or 0.5 from the second byte and its
// work from the third; a SetCapacity takes its resource from the second
// byte and its capacity from the third.
func decodeClasses(data []byte) ([]float64, []solverOp) {
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
		capacity[r] = solverCaps[next()%len(solverCaps)]
	}
	var routes [4][]int
	for k := range routes {
		mask := next()
		for r := range capacity {
			if mask>>r&1 == 1 {
				routes[k] = append(routes[k], r)
			}
		}
		if len(routes[k]) == 0 {
			routes[k] = []int{mask % len(capacity)}
		}
	}
	var ops []solverOp
	for len(data) > 0 && len(ops) < 64 {
		kind, arg, arg2 := next(), next(), next()
		op := solverOp{at: Time(kind&31) * 2}
		if kind>>5&3 == 0 {
			op.setCap, op.r, op.capacity = true, arg%len(capacity), solverCaps[arg2%len(solverCaps)]
			ops = append(ops, op)
			continue
		}
		op.uses = routes[arg&3]
		op.rateCap = solverRates[arg>>2&3]
		op.lag = Time(arg>>4&1) / 2
		op.work = classesWorks[arg2&7]
		ops = append(ops, op)
	}
	return capacity, ops
}

// runReference plays ops on referenceMaxMin with the given eps and returns
// each start's completion time, NaN for a SetCapacity.
func runReference(capacity []float64, ops []solverOp, eps float64) []Time {
	e := New(1)
	s := newReferenceMaxMin(e, eps, 1e-9)
	for _, c := range capacity {
		s.AddResource(c)
	}
	acts := make([]refActivity, len(ops))
	dones := make([]Done, len(ops))
	cbs := make([]Callback, len(ops))
	at := make([]Time, len(ops))
	for i, op := range ops {
		at[i] = math.NaN()
		e.At(op.at, func() {
			if op.setCap {
				s.SetCapacity(op.r, op.capacity)
				return
			}
			cbs[i] = NewCallback(e, func() { at[i] = e.Now() })
			dones[i].FiredOr(&cbs[i])
			s.Start(&acts[i], op.work, op.rateCap, op.uses, &dones[i], op.lag)
		})
	}
	e.Run()
	return at
}

// Classes fill, empty and refill, and their clocks pass the rebase point,
// yet every completion lands within refTol of the reference solver's.
func FuzzMaxMinClasses(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		capacity, ops := decodeClasses(data)
		got := runSolver(capacity, ops, classesEps)
		want := runReference(capacity, ops, classesEps)
		done := make([]bool, len(ops))
		for _, c := range got {
			done[c.op] = true
			if !near(c.at, want[c.op]) {
				t.Fatalf("op %d completed at %v, reference %v", c.op, c.at, want[c.op])
			}
		}
		for i, op := range ops {
			if !op.setCap && !done[i] {
				t.Fatalf("op %d never completed; reference at %v", i, want[i])
			}
		}
	})
}

// A class that keeps members past classesEps*2^50 = 64 units of progress
// has its clock rebased mid-run, and its completions still match the
// reference solver's. Four 100-unit starts on one route, 20 s apart, keep
// the class live from 0 to 400 s while its clock climbs past 64 at about
// t = 169.
func TestMaxMinClassClockRebases(t *testing.T) {
	_, ops := decodeClasses([]byte{0, 1, 1, 1, 1, 1, 32, 0, 7, 42, 0, 7, 52, 0, 7, 62, 0, 7})
	capacity := []float64{1}
	e := New(1)
	s := NewMaxMin(e, "rebase", classesEps, 1e-9)
	s.AddResource(capacity[0])
	acts := make([]Activity, len(ops))
	dones := make([]Done, len(ops))
	for i, op := range ops {
		e.At(op.at, func() { s.Start(&acts[i], op.work, op.rateCap, op.uses, &dones[i], op.lag) })
	}
	rebased, last := false, 0.0
	for now := 1.0; now < 400; now++ {
		e.At(now, func() {
			s.Carried(0) // advance the clock to now
			if s.live == 1 {
				rebased = rebased || s.classes[0].v < last
				last = s.classes[0].v
			}
		})
	}
	var at [4]Time
	for i := range dones {
		cb := NewCallback(e, func() { at[i] = e.Now() })
		dones[i].FiredOr(&cb)
	}
	e.Run()
	if !rebased {
		t.Fatal("the class clock was never rebased")
	}
	want := runReference(capacity, ops, classesEps)
	for i := range at {
		if !near(at[i], want[i]) {
			t.Errorf("start %d completed at %v, reference %v", i, at[i], want[i])
		}
	}
	if s.live != 0 || s.classes[0].v != 0 {
		t.Errorf("after the run: %d live classes, first slot's clock %v; want 0 and 0", s.live, s.classes[0].v)
	}
}

// Activities that finish at one instant fire their latches in start order,
// across classes and within one, whatever order their heaps give them up
// in. Two routes on one resource take 32 equal starts in turn, so one pass
// retires all 32.
func TestMaxMinRetiresInStartOrder(t *testing.T) {
	e := New(1)
	s := NewMaxMin(e, "order", 1e-9, 1e-9)
	s.AddResource(1)
	routes := [2][]int{{0}, {0}}
	const n = 32
	acts := make([]Activity, n)
	dones := make([]Done, n)
	cbs := make([]Callback, n)
	var order []int
	for i := range acts {
		cbs[i] = NewCallback(e, func() { order = append(order, i) })
		dones[i].FiredOr(&cbs[i])
		s.Start(&acts[i], 1, 0, routes[i%2], &dones[i], 0)
	}
	e.Run()
	if len(order) != n {
		t.Fatalf("%d completions, want %d", len(order), n)
	}
	for i, op := range order {
		if op != i {
			t.Fatalf("completion order %v, want start order", order)
		}
	}
}

// Work is conserved: after a run, each resource has carried the summed
// work of the activities that crossed it, less at most one retirement
// residue each (an activity retires with up to max(eps, rate*minTick)
// left, which no resource carries), and no resource carried more than its
// capacity allows in the time the run took, its roofline.
func TestMaxMinConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const eps, minTick = 1e-9, 1e-9
	for run := 0; run < 400; run++ {
		e := New(1)
		s := NewMaxMin(e, "conservation", eps, minTick)
		capacity := make([]float64, 1+rng.Intn(6))
		for r := range capacity {
			capacity[r] = solverCaps[rng.Intn(len(solverCaps))] * (0.5 + rng.Float64())
			s.AddResource(capacity[r])
		}
		routes := make([][]int, 1+rng.Intn(4))
		for k := range routes {
			routes[k] = rng.Perm(len(capacity))[:1+rng.Intn(len(capacity))]
		}
		n := 1 + rng.Intn(40)
		acts := make([]Activity, n)
		dones := make([]Done, n)
		want := make([]float64, len(capacity))
		crossings := make([]int, len(capacity))
		for i := range acts {
			uses := routes[rng.Intn(len(routes))]
			work := math.Exp(rng.NormFloat64() * 2)
			rateCap := 0.0
			if rng.Intn(3) == 0 {
				rateCap = solverRates[1+rng.Intn(3)]
			}
			for _, r := range uses {
				want[r] += work
				crossings[r]++
			}
			e.At(float64(rng.Intn(20))/4, func() { s.Start(&acts[i], work, rateCap, uses, &dones[i], 0) })
		}
		end := e.Run()
		for i := range dones {
			if !dones[i].Fired() {
				t.Fatalf("run %d: activity %d never completed", run, i)
			}
		}
		residue := max(eps, slices.Max(capacity)*minTick)
		for r, c := range capacity {
			got := s.Carried(r)
			if tol := float64(crossings[r])*residue + 1e-12*want[r]; math.Abs(got-want[r]) > tol {
				t.Fatalf("run %d: resource %d carried %v, its activities' work %v (tolerance %v)", run, r, got, want[r], tol)
			}
			if roofline := got / c; end < roofline*(1-1e-12) {
				t.Fatalf("run %d: finished at %v, before resource %d's roofline %v", run, end, r, roofline)
			}
		}
	}
}
