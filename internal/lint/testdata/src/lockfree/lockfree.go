// Test fixtures for the lockfree analyzer: concurrency machinery in
// simulator-driven code. Everything runs single-threaded under the
// virtual clock, so go statements, channels, select, and sync/atomic are
// all flagged.
package lockfree

import (
	"sync"
	"sync/atomic"
)

// spawnWorker hands work to the host scheduler.
func spawnWorker(work func()) {
	go work() // want "go statement in simulator-driven code"
}

// fanIn races two channels; the ready-case choice is nondeterministic.
func fanIn(a, b chan int) int { // want "channel type"
	select { // want "select in simulator-driven code"
	case v := <-a: // want "channel receive"
		return v
	case v := <-b: // want "channel receive"
		return v
	}
}

// push sends across goroutines.
func push(ch chan string, v string) { // want "channel type"
	ch <- v // want "channel send"
}

// drain consumes in delivery order, which tracks goroutine scheduling.
func drain(ch chan int) int { // want "channel type"
	total := 0
	for v := range ch { // want "range over a channel"
		total += v
	}
	return total
}

// counter guards single-threaded state with a lock it cannot need.
type counter struct {
	mu sync.Mutex // want "sync.Mutex in simulator-driven code"
	n  int
}

func (c *counter) bump() {
	c.mu.Lock()   // want "sync.Lock in simulator-driven code"
	c.n++
	c.mu.Unlock() // want "sync.Unlock in simulator-driven code"
}

// tick uses an atomic where a plain increment is correct by
// construction in single-threaded code.
func tick(n *int64) {
	atomic.AddInt64(n, 1) // want "atomic.AddInt64 in simulator-driven code"
}

// sequential is clean: plain single-threaded code.
func sequential(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// modelledHandoff is a channel receive silenced by a per-site allow.
func modelledHandoff(ready chan struct{}) { // want "channel type"
	//vhlint:allow lockfree -- test fixture: an allow still silences the site it annotates
	<-ready
}

//vhlint:allow lockfree -- test fixture: purely sequential helper needs no allow // want "stale //vhlint:allow lockfree"
func sequentialAllowed(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
