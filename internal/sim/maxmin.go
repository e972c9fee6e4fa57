package sim

import (
	"fmt"
	"math"
	"slices"
)

// MaxMin is the fluid model behind every rate-shared device in the
// simulator: CPU pools, disks and the memory bus (through FairShare) and
// network links (through vnet.Fabric). A resource has a capacity in work
// units per second. An activity has an amount of work, an optional rate cap
// and the resources it uses; every activity in service progresses at its
// max-min fair rate, and its latch fires when its work is finished.
//
// Activities that share one uses slice (the same backing array and length)
// and one rate cap always get the same rate, so the solver's unit is such
// a class, not the activity. A class keeps its member count, its rate and
// a progress clock v, the work each member has done since the class was
// made; a member stores its finish point, v at its start plus its work, so
// its remaining work is finish-v, and the members sit in a min-heap by
// finish point. Progressive filling freezes whole classes, progress moves
// one clock per class, and retirement and the next completion read only
// each class's head. A clock is reset when its class empties and rebased
// (subtracted from every member's finish point) once it passes eps*2^50,
// so finish-v stays exact to within eps/4.
//
// Rates come from progressive filling. Each round finds the bottleneck, the
// resource with the smallest fair share residual/float64(n) over its n
// unfrozen activities, the earliest-created resource winning a tie; only
// resources some class crosses are scanned. Any class whose cap is at most
// that share freezes at its cap (a cap wins a tie with the share);
// otherwise every unfrozen class on the bottleneck freezes at the share,
// charging n times it to each resource it uses. Classes and resources are
// walked in a fixed order, and latches fire in start order, so the
// floating-point results and the order of completions are a function of
// the simulation alone.
//
// Every start, retune and completion is one pass: it retires what is
// finished, then re-rates the classes left and re-arms the completion
// event. An activity just started has no rate yet, so its pass retires it
// only when its work is already done; otherwise the re-rate adds it to its
// class.
type MaxMin struct {
	engine  *Engine
	name    string
	eps     float64 // work residue below which an activity is finished
	minTick Time    // least time between completion events
	res     []resource
	// firstActive heads the list, in creation order and linked through
	// nextActive, of the resources some class crossed at the last re-rate;
	// -1 when it is empty. Only these have a rate in use.
	firstActive int32
	live        int32   // live classes, classes[:live]
	classes     []class // the live classes, then empty slots kept for reuse
	starts      uint64  // activities ever started: the next start stamp

	lastUpdate Time
	next       event // the next-completion event, kept and re-armed in place
}

type resource struct {
	capacity float64
	inUse    float64 // rate allocated by the last recompute
	busyInt  float64 // integral of inUse over time
	capInt   float64 // integral of capacity from creation to since
	since    Time    // last capacity change, or creation
	carried  float64 // cumulative work carried

	residual   float64 // recomputeRates scratch
	crossing   int32   // recomputeRates scratch: unfrozen activities using it
	nextActive int32   // the next resource on the active list
}

// class is the activities in service that share a uses slice and a rate
// cap, and so a rate.
type class struct {
	uses    []int
	rateCap float64
	rate    float64
	v       float64   // progress clock: work each member has done since reset or rebase
	head    *Activity // root of the pairing heap of the members by finish point
	n       int32     // members, fresh ones included
	frozen  bool      // recomputeRates scratch
}

// Activity is one unit of work in service on a MaxMin solver. Its owner
// allocates it, usually in one object with the latch it completes; the
// solver fills it in when the activity starts.
type Activity struct {
	finish float64 // its class's clock when it is finished; its work until its first re-rate
	done   *Done   // fired lag seconds after the work is finished
	lag    Time
	stamp  uint64 // start order
	// child and sibling link the class's pairing heap; sibling also links
	// a retirement pass's retirees.
	child, sibling *Activity
	cls            int32 // its class's slot until its first re-rate
	inService      bool  // between Start and retirement
}

// NewMaxMin returns a solver with no resources. An activity whose residue
// falls to eps, or that would finish within minTick, is retired; minTick is
// also the least delay between completion events, so floating-point
// undershoot in rate*dt can never pin the clock at one virtual time.
func NewMaxMin(e *Engine, name string, eps float64, minTick Time) *MaxMin {
	s := &MaxMin{engine: e, name: name, eps: eps, minTick: minTick, firstActive: -1, lastUpdate: e.now}
	s.next = event{index: -1, keep: true, fn: s.complete}
	return s
}

// AddResource registers a resource and returns its index.
func (s *MaxMin) AddResource(capacity float64) int {
	s.res = append(s.res, resource{capacity: capacity, since: s.engine.now})
	return len(s.res) - 1
}

// Capacity returns resource r's capacity.
func (s *MaxMin) Capacity(r int) float64 { return s.res[r].capacity }

// SetCapacity retunes resource r mid-simulation: progress is integrated at
// the old rates first, then every activity is re-rated.
func (s *MaxMin) SetCapacity(r int, capacity float64) {
	s.advance()
	res := &s.res[r]
	res.capInt += res.capacity * (s.engine.now - res.since)
	res.capacity, res.since = capacity, s.engine.now
	s.reschedule(nil)
}

// Utilization returns the fraction of resource r's capacity allocated now.
func (s *MaxMin) Utilization(r int) float64 {
	return s.res[r].inUse / s.res[r].capacity
}

// MeanUtilization returns resource r's time-averaged utilisation since its
// creation, against the capacity it had at each moment.
func (s *MaxMin) MeanUtilization(r int) float64 {
	s.advance()
	res := &s.res[r]
	offered := res.capInt + res.capacity*(s.engine.now-res.since)
	if offered <= 0 {
		return 0
	}
	return res.busyInt / offered
}

// Carried returns the cumulative work carried by resource r.
func (s *MaxMin) Carried(r int) float64 {
	s.advance()
	return s.res[r].carried
}

// Len returns the number of activities in service. Only tests read it,
// through FairShare.Load and vnet's Fabric.ActiveFlows.
func (s *MaxMin) Len() int {
	n := 0
	for _, c := range s.classes[:s.live] {
		n += int(c.n)
	}
	return n
}

// Start puts a into service: work units over the resources uses, at most
// rateCap per second (0: uncapped). done fires lag seconds after the work
// is finished: at once if lag is 0, else from an event scheduled at
// retirement. uses must be non-empty and is not copied; activities started
// with one uses slice and one rate cap form a class. An activity may be
// started again once it has retired; starting one still in service panics.
func (s *MaxMin) Start(a *Activity, work, rateCap float64, uses []int, done *Done, lag Time) {
	if a.inService {
		panic(fmt.Sprintf("sim: %s: activity started while in service", s.name))
	}
	s.advance()
	c := s.classFor(uses, rateCap)
	s.classes[c].n++
	*a = Activity{finish: work, done: done, lag: lag, stamp: s.starts, cls: c, inService: true}
	s.starts++
	s.reschedule(a)
}

// advance integrates progress and accounting from lastUpdate to now: each
// class's clock moves by rate*dt, and each resource it uses carries n times
// that, less the overshoot of members that finish inside dt; then busy time
// in resource order.
func (s *MaxMin) advance() {
	now := s.engine.now
	dt := now - s.lastUpdate
	s.lastUpdate = now
	if dt <= 0 {
		return
	}
	for i := range s.classes[:s.live] {
		c := &s.classes[i]
		moved := c.rate * dt
		charge := float64(c.n) * moved
		if c.head.finish-c.v < moved {
			charge -= overshoot(c.head, c.v, moved)
		}
		if c.v += moved; c.v > math.Ldexp(s.eps, 50) {
			rebase(c.head, c.v)
			c.v = 0
		}
		for _, r := range c.uses {
			s.res[r].carried += charge
		}
	}
	for i := s.firstActive; i >= 0; i = s.res[i].nextActive {
		s.res[i].busyInt += s.res[i].inUse * dt
	}
}

// overshoot returns, over the members of the heap rooted at a whose work
// left on clock v is less than moved, how much moved exceeds that work.
func overshoot(a *Activity, v, moved float64) float64 {
	over := 0.0
	for ; a != nil; a = a.sibling {
		if left := a.finish - v; left < moved {
			over += moved - max(left, 0) + overshoot(a.child, v, moved)
		}
	}
	return over
}

// rebase subtracts v from the finish point of every member of the heap
// rooted at a.
func rebase(a *Activity, v float64) {
	for ; a != nil; a = a.sibling {
		a.finish -= v
		rebase(a.child, v)
	}
}

// meld returns the root of the union of the pairing heaps rooted at a and
// b, either possibly empty; a stays the root on a tie.
func meld(a, b *Activity) *Activity {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case b.finish < a.finish:
		a, b = b, a
	}
	b.sibling, a.child = a.child, b
	return a
}

// pop removes and returns c's head, melding its children in two passes:
// pairs left to right, then the pairs right to left.
func (c *class) pop() *Activity {
	h := c.head
	var pairs *Activity // the melded pairs, last first
	for x := h.child; x != nil; {
		y := x.sibling
		var next *Activity
		if y != nil {
			next, y.sibling = y.sibling, nil
		}
		x.sibling = nil
		m := meld(x, y)
		m.sibling, pairs = pairs, m
		x = next
	}
	c.head = nil
	for pairs != nil {
		next := pairs.sibling
		pairs.sibling = nil
		c.head = meld(c.head, pairs)
		pairs = next
	}
	h.child = nil
	c.n--
	return h
}

// classFor returns the slot of the live class with uses (by identity) and
// rateCap, making one from an empty slot if there is none.
func (s *MaxMin) classFor(uses []int, rateCap float64) int32 {
	for i := range s.classes[:s.live] {
		if c := &s.classes[i]; c.rateCap == rateCap && len(c.uses) == len(uses) && &c.uses[0] == &uses[0] {
			return int32(i)
		}
	}
	if int(s.live) == len(s.classes) {
		s.classes = append(s.classes, class{})
	}
	s.classes[s.live].uses, s.classes[s.live].rateCap = uses, rateCap
	s.live++
	return s.live - 1
}

// recomputeRates assigns every class its max-min fair rate by progressive
// filling (see MaxMin).
func (s *MaxMin) recomputeRates() {
	st := &s.engine.stats
	s.idle()
	live := s.classes[:s.live]
	anyCap := false
	for i := range live {
		c := &live[i]
		c.frozen = false
		anyCap = anyCap || c.rateCap > 0
		for _, r := range c.uses {
			res := &s.res[r]
			if res.crossing == 0 {
				res.residual = res.capacity
				s.activate(r)
			}
			res.crossing += c.n
		}
	}
	for unfrozen := len(live); unfrozen > 0; {
		st.Rounds++
		st.Visits += uint64(len(live))
		b, best := -1, Forever
		for i := s.firstActive; i >= 0; i = s.res[i].nextActive {
			r := &s.res[i]
			if r.crossing == 0 {
				continue
			}
			if share := r.residual / float64(r.crossing); share < best {
				b, best = int(i), share
			}
		}
		// A class capped at or below the bottleneck share reaches its cap
		// before anything it uses saturates.
		capped := false
		for i := 0; anyCap && i < len(live); i++ {
			if c := &live[i]; !c.frozen && c.rateCap > 0 && c.rateCap <= best {
				s.freeze(c, c.rateCap)
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
		for i := range live {
			if c := &live[i]; !c.frozen && slices.Contains(c.uses, b) {
				s.freeze(c, best)
				unfrozen--
			}
		}
	}
}

// idle empties the active list, zeroing each resource's rate in use.
func (s *MaxMin) idle() {
	for i := s.firstActive; i >= 0; i = s.res[i].nextActive {
		s.res[i].inUse = 0
	}
	s.firstActive = -1
}

// activate puts resource r on the active list in creation order.
func (s *MaxMin) activate(r int) {
	p := &s.firstActive
	for *p >= 0 && int(*p) < r {
		p = &s.res[*p].nextActive
	}
	s.res[r].nextActive, *p = *p, int32(r)
}

// freeze fixes c's rate and charges it, once per member, to every
// resource c uses.
func (s *MaxMin) freeze(c *class, rate float64) {
	c.frozen, c.rate = true, rate
	load := float64(c.n) * rate
	for _, i := range c.uses {
		r := &s.res[i]
		r.residual -= load
		if r.residual < 0 {
			r.residual = 0
		}
		r.crossing -= c.n
		r.inUse += load
	}
}

// complete is the next-completion event's callback.
func (s *MaxMin) complete() {
	s.advance()
	s.reschedule(nil)
}

// reschedule is one pass (see MaxMin): it retires finished activities,
// then re-rates the rest and re-arms the next-completion event. fresh is
// the activity Start just put in service, or nil.
func (s *MaxMin) reschedule(fresh *Activity) {
	// Retire activities that are done or would finish within one tick: the
	// fresh one, with no rate yet, only when done; in a class, the heads
	// while they qualify, all members having one rate.
	e := s.engine
	var retired *Activity // linked through sibling
	if fresh != nil && fresh.finish <= s.eps {
		s.classes[fresh.cls].n--
		fresh, retired = nil, fresh
	}
	for i := int32(0); i < s.live; {
		c := &s.classes[i]
		limit := max(s.eps, c.rate*s.minTick)
		for c.head != nil && c.head.finish-c.v <= limit {
			a := c.pop()
			a.sibling, retired = retired, a
		}
		if c.n == 0 {
			s.release(i)
			if fresh != nil && fresh.cls == s.live {
				fresh.cls = i
			}
			continue
		}
		i++
	}
	// Heaps give up their heads in finish order, so the latches are put
	// back in start order.
	for a := sortByStamp(retired); a != nil; {
		next := a.sibling
		a.sibling, a.inService = nil, false
		if a.lag > 0 {
			e.FireAfter(a.lag, a.done)
		} else {
			a.done.fire()
		}
		a = next
	}
	if s.live == 0 {
		e.disarm(&s.next)
		s.idle()
		return
	}
	s.rerate(fresh)
}

// sortByStamp sorts the list linked through sibling and headed by list
// into start order, by merge sort: O(k log k) for k activities, and no
// allocation.
func sortByStamp(list *Activity) *Activity {
	if list == nil || list.sibling == nil {
		return list
	}
	mid, end := list, list.sibling
	for end != nil && end.sibling != nil {
		mid, end = mid.sibling, end.sibling.sibling
	}
	rest := mid.sibling
	mid.sibling = nil
	a, b := sortByStamp(list), sortByStamp(rest)
	head := &list
	for a != nil && b != nil {
		if b.stamp < a.stamp {
			a, b = b, a
		}
		*head = a
		head, a = &a.sibling, a.sibling
	}
	if a == nil {
		a = b
	}
	*head = a
	return list
}

// release empties live class slot i, resetting its clock, and moves the
// last live class into its place.
func (s *MaxMin) release(i int32) {
	s.live--
	s.classes[i], s.classes[s.live] = s.classes[s.live], class{}
}

// rerate adds fresh, unless nil, to its class's heap, recomputes the rates
// and re-arms the next-completion event.
func (s *MaxMin) rerate(fresh *Activity) {
	s.engine.stats.Rerates++
	if fresh != nil {
		c := &s.classes[fresh.cls]
		fresh.finish += c.v
		c.head = meld(c.head, fresh)
	}
	s.recomputeRates()
	minT := Forever
	for i := range s.classes[:s.live] {
		c := &s.classes[i]
		if c.rate <= 0 {
			continue
		}
		if t := (c.head.finish - c.v) / c.rate; t < minT {
			minT = t
		}
	}
	if minT >= Forever {
		panic(fmt.Sprintf("sim: %s stalled with %d activities", s.name, s.Len()))
	}
	if minT < s.minTick {
		minT = s.minTick
	}
	s.engine.rearm(&s.next, s.engine.now+minT)
}
