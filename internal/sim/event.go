package sim

import "container/heap"

// Timer is a handle to a scheduled event. Cancel prevents the event from
// firing if it has not fired yet.
type Timer struct {
	ev *event
}

// Cancel deactivates the timer. Cancelling an already-fired or
// already-cancelled timer is a no-op. Cancel reports whether the event was
// still pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil || t.ev.cancelled || t.ev.fired {
		return false
	}
	t.ev.cancelled = true
	return true
}

// Pending reports whether the timer's event is still scheduled to fire.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && !t.ev.cancelled && !t.ev.fired
}

// event is a single entry in the engine's event heap. Exactly one of fn and
// proc is set: fn events run a callback in engine context, proc events resume
// a blocked process.
type event struct {
	at        Time
	seq       uint64 // tie-breaker: FIFO among equal timestamps
	fn        func()
	proc      *Proc
	cancelled bool
	fired     bool
}

// eventHeap orders events by (time, sequence number).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func (h *eventHeap) push(ev *event) { heap.Push(h, ev) }

// pop returns the next non-cancelled event, or nil if the heap is empty.
func (h *eventHeap) pop() *event {
	for h.Len() > 0 {
		ev := heap.Pop(h).(*event)
		if !ev.cancelled {
			return ev
		}
	}
	return nil
}
