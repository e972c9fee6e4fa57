package sim

import (
	"container/heap"
	"testing"
)

// referenceQueue is the engine's former event queue, kept as the oracle for
// FuzzEventQueue: container/heap ordered by (time, sequence number),
// cancellation by tombstone, a kept event re-armed by cancelling it and
// scheduling a fresh one, and RunUntil pushing an event past its deadline
// back with sequence number 0.
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
	e    *Engine
	kept [fuzzKept]event
	log  []firing
}

func newEngineQueue() *engineQueue {
	q := &engineQueue{e: New(1)}
	for k := range q.kept {
		id := keptID(k)
		q.kept[k] = event{index: -1, keep: true, fn: func() { fire(q, &q.log, id) }}
	}
	return q
}

func (q *engineQueue) Now() Time              { return q.e.Now() }
func (q *engineQueue) At(t Time, id int)      { q.e.At(t, func() { fire(q, &q.log, id) }) }
func (q *engineQueue) Rearm(k int, t Time)    { q.e.rearm(&q.kept[k], t) }
func (q *engineQueue) Disarm(k int)           { q.e.disarm(&q.kept[k]) }
func (q *engineQueue) RunUntil(deadline Time) { q.e.RunUntil(deadline) }

// fuzzQueue is the operation set FuzzEventQueue runs on both queues.
type fuzzQueue interface {
	Now() Time
	At(t Time, id int)
	Rearm(k int, t Time)
	Disarm(k int)
	RunUntil(deadline Time)
}

type firing struct {
	at Time
	id int
}

const fuzzKept = 3

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
}

// runFuzzOps decodes data two bytes at a time into queue operations, runs
// them on q, then drains it. Times are multiples of 0.5 so ties are common.
func runFuzzOps(q fuzzQueue, data []byte) {
	id := 0
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%4, int(data[i+1])
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
		}
	}
	q.RunUntil(Forever)
}

// FuzzEventQueue checks that the engine's queue fires the same events at the
// same times, in the same order, as the reference queue.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, eng := &referenceQueue{}, newEngineQueue()
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
		if len(eng.e.events) != 0 {
			t.Fatalf("%d events left queued after the drain", len(eng.e.events))
		}
	})
}
