package sim

import "slices"

// Queue is a counting semaphore with strict FIFO wakeup. It models bounded
// pools: task slots on a tasktracker, RPC handler threads, and so on.
type Queue struct {
	engine    *Engine
	capacity  int
	available int
	// waiters[head:] is the FIFO line, held by value so that a blocking
	// Acquire allocates nothing once the array has grown.
	waiters []qWaiter
	head    int
}

type qWaiter struct {
	p *Proc
	n int
}

// NewQueue returns a queue with the given capacity, all of it available.
func NewQueue(e *Engine, capacity int) *Queue {
	if capacity <= 0 {
		panic("sim: queue capacity must be positive")
	}
	return &Queue{engine: e, capacity: capacity, available: capacity}
}

// Acquire blocks p until n units are available, then takes them. Grants are
// strictly FIFO: a large request at the head of the line blocks later small
// requests (no starvation). If p is aborted or killed while waiting, its
// queue entry (or an already-applied grant) is returned before unwinding;
// leaving the line may let the waiters behind it through.
func (q *Queue) Acquire(p *Proc, n int) {
	if n <= 0 || n > q.capacity {
		panic("sim: invalid acquire count")
	}
	if q.head == len(q.waiters) && q.available >= n {
		q.available -= n
		return
	}
	q.push(qWaiter{p: p, n: n})
	defer func() {
		if r := recover(); r != nil {
			if q.granted(p) {
				q.Release(n) // grant landed just as we unwound
			} else {
				q.removeWaiter(p)
				q.grant()
			}
			panic(r)
		}
	}()
	for {
		p.block()
		// We are woken by Release when our grant is ready; the grant was
		// already applied, so just return.
		if q.granted(p) {
			return
		}
	}
}

// push appends w to the line, moving the line to the front of its array
// first if that saves growing it.
func (q *Queue) push(w qWaiter) {
	if q.head > 0 && len(q.waiters) == cap(q.waiters) {
		n := copy(q.waiters, q.waiters[q.head:])
		clear(q.waiters[n:])
		q.waiters, q.head = q.waiters[:n], 0
	}
	q.waiters = append(q.waiters, w)
}

// removeWaiter drops p's pending entry (abort-path cleanup).
func (q *Queue) removeWaiter(p *Proc) {
	for i := q.head; i < len(q.waiters); i++ {
		if q.waiters[i].p == p {
			q.waiters = slices.Delete(q.waiters, i, i+1)
			return
		}
	}
}

// granted reports whether p's waiter entry has been consumed.
func (q *Queue) granted(p *Proc) bool {
	for _, w := range q.waiters[q.head:] {
		if w.p == p {
			return false
		}
	}
	return true
}

// Release returns n units and hands them to queued waiters in FIFO order.
func (q *Queue) Release(n int) {
	if n <= 0 {
		panic("sim: invalid release count")
	}
	q.available += n
	if q.available > q.capacity {
		panic("sim: queue over-released")
	}
	q.grant()
}

// grant hands free units to the line in FIFO order, stopping at the first
// waiter they do not cover.
func (q *Queue) grant() {
	for q.head < len(q.waiters) && q.available >= q.waiters[q.head].n {
		w := q.waiters[q.head]
		q.waiters[q.head] = qWaiter{} // drop the process reference
		q.head++
		q.available -= w.n
		w.p.scheduleAt(q.engine.now)
	}
}
