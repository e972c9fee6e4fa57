package sim

import (
	"container/heap"
	"testing"
)

// referenceQueue is the engine's former event queue, kept as the oracle for
// FuzzEventQueue: container/heap ordered by (time, sequence number),
// cancellation by tombstone, a kept event re-armed by cancelling it and
// scheduling a fresh one, a lane's callback scheduled at now plus the
// lane's delay, and RunUntil pushing an event past its deadline back with
// sequence number 0.
type referenceQueue struct {
	now  Time
	seq  uint64
	h    refHeap
	kept [fuzzKept]*refEvent
	log  []firing
}

type refEvent struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func (q *referenceQueue) schedule(t Time, id int) *refEvent {
	q.seq++
	ev := &refEvent{at: t, seq: q.seq, id: id}
	heap.Push(&q.h, ev)
	return ev
}

func (q *referenceQueue) Now() Time           { return q.now }
func (q *referenceQueue) At(t Time, id int)   { q.schedule(t, id) }
func (q *referenceQueue) Lane(k, id int)      { q.schedule(q.now+fuzzLaneDelays[k], id) }
func (q *referenceQueue) Rearm(k int, t Time) { q.Disarm(k); q.kept[k] = q.schedule(t, keptID(k)) }

func (q *referenceQueue) Disarm(k int) {
	if q.kept[k] != nil {
		q.kept[k].cancelled = true
		q.kept[k] = nil
	}
}

func (q *referenceQueue) RunUntil(deadline Time) {
	for q.h.Len() > 0 {
		ev := heap.Pop(&q.h).(*refEvent)
		if ev.cancelled {
			continue
		}
		if ev.at > deadline {
			ev.seq = 0
			heap.Push(&q.h, ev)
			q.now = deadline
			return
		}
		q.now = ev.at
		if ev.id < 0 {
			q.kept[keptIndex(ev.id)] = nil
		}
		fire(q, &q.log, ev.id)
	}
}

// engineQueue drives a real Engine through the same operations.
type engineQueue struct {
	t     *testing.T
	e     *Engine
	kept  [fuzzKept]event
	lanes [len(fuzzLaneDelays)]*Lane
	log   []firing
}

func newEngineQueue(t *testing.T) *engineQueue {
	q := &engineQueue{t: t, e: New(1)}
	for k := range q.kept {
		id := keptID(k)
		q.kept[k] = event{index: -1, keep: true, fn: func() { fire(q, &q.log, id) }}
	}
	for k, d := range fuzzLaneDelays {
		q.lanes[k] = q.e.NewLane(d)
	}
	return q
}

func (q *engineQueue) Now() Time           { return q.e.Now() }
func (q *engineQueue) At(t Time, id int)   { q.e.At(t, func() { fire(q, &q.log, id) }) }
func (q *engineQueue) Lane(k, id int)      { q.lanes[k].After(func() { fire(q, &q.log, id) }) }
func (q *engineQueue) Rearm(k int, t Time) { q.e.rearm(&q.kept[k], t) }
func (q *engineQueue) Disarm(k int)        { q.e.disarm(&q.kept[k]) }

// RunUntil also checks that the run returns with the ready FIFO empty: it
// holds only events due now, and the run loop pops it before it looks at
// the deadline. Nor may a lane's head be due by then, and the engine's
// list holds exactly the lanes that hold a callback.
func (q *engineQueue) RunUntil(deadline Time) {
	q.e.RunUntil(deadline)
	if q.e.head != len(q.e.ready) {
		q.t.Fatalf("RunUntil(%v) returned at %v with %d ready events", deadline, q.e.Now(), len(q.e.ready)-q.e.head)
	}
	listed := 0
	for l := q.e.lanes; l != nil; l = l.next {
		listed++
		if l.n == 0 || l.ring[l.head].at <= q.e.Now() {
			q.t.Fatalf("RunUntil(%v) returned at %v with a lane of %d callbacks listed, head due %v", deadline, q.e.Now(), l.n, l.ring[l.head].at)
		}
	}
	for _, l := range q.lanes {
		if l.n > 0 {
			listed--
		}
	}
	if listed != 0 {
		q.t.Fatalf("RunUntil(%v): the engine lists %d lanes more than hold a callback", deadline, listed)
	}
}

// fuzzQueue is the operation set FuzzEventQueue runs on both queues.
type fuzzQueue interface {
	Now() Time
	At(t Time, id int)
	Lane(k, id int)
	Rearm(k int, t Time)
	Disarm(k int)
	RunUntil(deadline Time)
}

type firing struct {
	at Time
	id int
}

const fuzzKept = 3

// fuzzLaneDelays are the lanes' delays: multiples of 0.5, as every fuzzed
// time is, so a lane's callbacks tie with heap and ready events, and one
// lane's callbacks are due at once.
var fuzzLaneDelays = [...]Time{1.5, 0.5, 0}

// Kept events fire with negative ids.
func keptID(k int) int     { return -1 - k }
func keptIndex(id int) int { return -1 - id }

// fire logs a firing and, for some ids, schedules follow-up work from inside
// the run loop, so recycled events are reused while the queue is live.
func fire(q fuzzQueue, log *[]firing, id int) {
	*log = append(*log, firing{q.Now(), id})
	if id < 0 || id >= 1000 {
		return
	}
	if id%3 == 0 {
		q.At(q.Now()+Time(id%5)/2, id+1000)
	}
	if id%4 == 1 {
		q.Rearm(id%fuzzKept, q.Now()+1)
	}
	if id%5 == 2 {
		q.Lane(id%len(fuzzLaneDelays), id+1000)
	}
}

// runFuzzOps decodes data two bytes at a time into queue operations, runs
// them on q, then drains it. Times are multiples of 0.5 so ties are common.
func runFuzzOps(q fuzzQueue, data []byte) {
	id := 0
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%5, int(data[i+1])
		delay := Time(arg%8) / 2
		switch op {
		case 0:
			q.At(q.Now()+delay, id)
			id++
		case 1:
			q.Rearm(arg%fuzzKept, q.Now()+Time(arg>>3%8)/2)
		case 2:
			q.Disarm(arg % fuzzKept)
		case 3:
			q.RunUntil(q.Now() + delay)
		case 4:
			q.Lane(arg%len(fuzzLaneDelays), id)
			id++
		}
	}
	q.RunUntil(Forever)
}

// FuzzEventQueue checks that the engine's queue fires the same events at the
// same times, in the same order, as the reference queue. The reference has
// one heap; the engine splits events due now onto its ready FIFO and each
// lane's callbacks onto the lane, so the seeds include At(now) between
// firings, a Rearm at now with ready events pending, a RunUntil(now) with
// ready events pending, and lane callbacks tied with heap and ready events
// and with each other.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, eng := &referenceQueue{}, newEngineQueue(t)
		runFuzzOps(ref, data)
		runFuzzOps(eng, data)
		if len(ref.log) != len(eng.log) {
			t.Fatalf("engine fired %d events, reference %d:\nengine    %v\nreference %v", len(eng.log), len(ref.log), eng.log, ref.log)
		}
		for i := range ref.log {
			if ref.log[i] != eng.log[i] {
				t.Fatalf("firing %d: engine %v, reference %v:\nengine    %v\nreference %v", i, eng.log[i], ref.log[i], eng.log, ref.log)
			}
		}
		if ref.now != eng.e.Now() {
			t.Fatalf("final clock: engine %v, reference %v", eng.e.Now(), ref.now)
		}
		if len(eng.e.events) != 0 || eng.e.head != len(eng.e.ready) || eng.e.lanes != nil {
			t.Fatalf("%d heap and %d ready events, lanes %v left queued after the drain", len(eng.e.events), len(eng.e.ready)-eng.e.head, eng.e.lanes != nil)
		}
	})
}
