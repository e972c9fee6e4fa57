package sim

import "fmt"

// MaxMin is the fluid model behind every rate-shared device in the
// simulator: CPU pools, disks and the memory bus (through FairShare) and
// network links (through vnet.Fabric). A resource has a capacity in work
// units per second. An activity has an amount of work, an optional rate cap
// and the resources it uses; every activity in service progresses at its
// max-min fair rate, and its done callback runs when its work is finished.
//
// Rates come from progressive filling. Each round finds the bottleneck, the
// resource with the smallest fair share residual/float64(n) over its n
// unfrozen activities, the earliest-created resource winning a tie. Any
// activity whose cap is at most that share freezes at its cap (a cap wins a
// tie with the share); otherwise every unfrozen activity on the bottleneck
// freezes at the share. Activities are kept in insertion order and resources
// in creation order, and every loop walks them in that order, so the
// floating-point results and the order of completion callbacks are a
// function of the simulation alone.
type MaxMin struct {
	engine  *Engine
	name    string
	eps     float64 // work residue below which an activity is finished
	minTick Time    // least time between completion events
	res     []resource
	acts    []*Activity

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

	residual float64 // recomputeRates scratch
	crossing int     // recomputeRates scratch: unfrozen activities using it
}

// Activity is one unit of work in service on a MaxMin solver. Its owner
// allocates it; the solver fills it in when the activity starts.
type Activity struct {
	remaining float64
	rateCap   float64 // 0: uncapped
	rate      float64
	uses      []int // resource indices
	done      func()
	frozen    bool // recomputeRates scratch
}

// Rate returns the activity's current rate in work units per second.
func (a *Activity) Rate() float64 { return a.rate }

// Remaining returns the work not yet served.
func (a *Activity) Remaining() float64 { return a.remaining }

// NewMaxMin returns a solver with no resources. An activity whose residue
// falls to eps, or that would finish within minTick, is retired; minTick is
// also the least delay between completion events, so floating-point
// undershoot in rate*dt can never pin the clock at one virtual time.
func NewMaxMin(e *Engine, name string, eps float64, minTick Time) *MaxMin {
	s := &MaxMin{engine: e, name: name, eps: eps, minTick: minTick, lastUpdate: e.now}
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
	s.reschedule()
}

// Utilization returns the fraction of resource r's capacity allocated now.
func (s *MaxMin) Utilization(r int) float64 { return s.res[r].inUse / s.res[r].capacity }

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

// Len returns the number of activities in service.
func (s *MaxMin) Len() int { return len(s.acts) }

// Start puts a into service: work units over the resources uses, at most
// rateCap per second (0: uncapped). done runs in engine context when the
// work is finished. uses must be non-empty and is not copied.
func (s *MaxMin) Start(a *Activity, work, rateCap float64, uses []int, done func()) {
	s.advance()
	*a = Activity{remaining: work, rateCap: rateCap, uses: uses, done: done}
	s.acts = append(s.acts, a)
	s.reschedule()
}

// advance integrates progress and accounting from lastUpdate to now: work
// carried in activity order, then resource order, and busy time in resource
// order.
//
//vhlint:hot
func (s *MaxMin) advance() {
	now := s.engine.now
	dt := now - s.lastUpdate
	s.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, a := range s.acts {
		moved := a.rate * dt
		if moved > a.remaining {
			moved = a.remaining
		}
		a.remaining -= moved
		for _, r := range a.uses {
			s.res[r].carried += moved
		}
	}
	for i := range s.res {
		s.res[i].busyInt += s.res[i].inUse * dt
	}
}

// recomputeRates assigns every activity its max-min fair rate by
// progressive filling (see MaxMin).
//
//vhlint:hot
func (s *MaxMin) recomputeRates() {
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
		// An activity capped at or below the bottleneck share reaches its
		// cap before anything it uses saturates.
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
			if !a.frozen && crosses(a, b) {
				s.freeze(a, best)
				unfrozen--
			}
		}
	}
}

// freeze fixes a's rate and charges it to every resource a uses.
func (s *MaxMin) freeze(a *Activity, rate float64) {
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

func crosses(a *Activity, r int) bool {
	for _, u := range a.uses {
		if u == r {
			return true
		}
	}
	return false
}

// complete is the next-completion event's callback.
func (s *MaxMin) complete() {
	s.advance()
	s.reschedule()
}

// reschedule retires finished activities, recomputes rates and re-arms the
// next-completion event.
func (s *MaxMin) reschedule() {
	// Retire activities that are done or would finish within one tick,
	// running their callbacks in insertion order and compacting the rest in
	// place.
	live := s.acts[:0]
	for _, a := range s.acts {
		if a.remaining <= s.eps || a.remaining <= a.rate*s.minTick {
			a.done()
			continue
		}
		live = append(live, a)
	}
	clear(s.acts[len(live):]) // release retired activities to the GC
	s.acts = live
	if len(live) == 0 {
		s.engine.disarm(&s.next)
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
		panic(fmt.Sprintf("sim: %s stalled with %d activities", s.name, len(s.acts)))
	}
	if minT < s.minTick {
		minT = s.minTick
	}
	s.engine.rearm(&s.next, s.engine.now+minT)
}
