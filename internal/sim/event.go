package sim

// event is a single entry in the engine's event heap. Exactly one of fn and
// proc is set: fn events run a callback in engine context, proc events resume
// a blocked process. The engine recycles a fired event through its free list
// unless keep is set: a kept event belongs to its scheduler, which re-arms
// and disarms it in place (see Engine.rearm).
type event struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among equal timestamps
	fn    func()
	proc  *Proc
	index int  // position in the heap, -1 when not queued
	keep  bool // owned by its scheduler, never recycled
}

// eventHeap is a binary min-heap of events ordered by (time, sequence
// number). Every key is unique, so the pop order does not depend on the
// heap's shape. The sift logic is container/heap's, specialised to *event.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h eventHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts element i0 down within h[:n] and reports whether it moved.
func (h eventHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (h *eventHeap) pop() *event {
	n := len(*h) - 1
	h.swap(0, n)
	h.down(0, n)
	return h.truncate()
}

// remove takes the event at index i out of the heap.
func (h *eventHeap) remove(i int) {
	n := len(*h) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	h.truncate()
}

// fix restores heap order after the key of the event at index i changed.
func (h eventHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

// truncate drops and returns the last slot, marking its event unqueued.
func (h *eventHeap) truncate() *event {
	old := *h
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	ev.index = -1
	return ev
}
