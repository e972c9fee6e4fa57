package main

import (
	"slices"
	"time"
)

// The benchmark runs on a few virtual CPUs of a shared host. What the
// neighbours do on the sibling hardware thread changes the CPU time of a
// fixed piece of work by tens of per cent, in bursts of milliseconds and in
// steps that last minutes: far more than any bound a benchmark could set,
// and a median over one run's batches cannot remove a step the whole run
// sits in. So host seconds are measured against a yardstick. While a batch
// runs, a goroutine wakes every yardPeriod and runs one slice of fixed
// standard-library work in the simulator's own shapes; with GOMAXPROCS 1 the
// simulation stands still meanwhile. A batch's seconds are its own (slices
// taken out) times yardRef over the mean slice, so a slow spell stretches
// both and cancels. The printed seconds are those of a host on which a slice
// takes yardRef. A change to the simulator cannot move the yardstick, which
// calls nothing of it.
const (
	yardPeriod = 8 * time.Millisecond

	// yardRef is about what a slice took beside the workloads on the host
	// the baseline in README.md was measured on when that was quiet (1.0 ms
	// beside dfsio, 1.3 ms beside terasort), so that scaled seconds are of
	// the size of measured ones.
	yardRef = 0.0012

	// The mix was weighed on this host: with the three parts equal in time
	// every workload slowed more than the slice when the host did, by 10 to
	// 35 %; with the map part as long as the other two together, by -6 to
	// +18 %, and the spread of ten runs fell by a third.
	yardHandoffs = 800
	yardRecords  = 2000
	yardUpdates  = 24000
)

type yardRec struct {
	key  uint64
	next *yardRec
}

// yardstick owns the slice's state, all allocated up front: a slice neither
// allocates nor starts a collection, so the batch's garbage is not billed to
// it.
type yardstick struct {
	recs       []*yardRec
	rates      map[uint32]float64
	x          uint64
	ping, pong chan struct{}
	sink       uint64

	stop, done chan struct{}
	read       yardReading // since begin
}

// yardReading is what the slices beside one interval took: seconds by the
// clock and seconds of the process's CPU time, which part ways when something
// else in the guest competes for the virtual CPU.
type yardReading struct {
	wall, cpu float64
	n         int
}

// wallScale and cpuScale turn the interval's own seconds, slices taken out,
// into seconds of the reference host. Without a yardstick they are 1.
func (r yardReading) wallScale() float64 {
	if r.n == 0 {
		return 1
	}
	return yardRef * float64(r.n) / r.wall
}

func (r yardReading) cpuScale() float64 {
	if r.n == 0 {
		return 1
	}
	return yardRef * float64(r.n) / r.cpu
}

func newYardstick() *yardstick {
	y := &yardstick{
		recs: make([]*yardRec, yardRecords), rates: make(map[uint32]float64, 1024),
		x: 88172645463325252, ping: make(chan struct{}), pong: make(chan struct{}),
	}
	for i := range y.recs {
		y.recs[i] = &yardRec{}
	}
	for k := uint32(0); k < 1024; k++ {
		y.rates[k] = 1
	}
	go func() {
		for range y.ping {
			y.pong <- struct{}{}
		}
	}()
	return y
}

// close ends the hand-off partner.
func (y *yardstick) close() { close(y.ping) }

func (y *yardstick) rand() uint64 {
	y.x ^= y.x << 13
	y.x ^= y.x >> 7
	y.x ^= y.x << 17
	return y.x
}

// slice runs the fixed work and adds what it took to the reading: goroutine
// hand-offs over unbuffered channels (the engine's baton), records rekeyed,
// sorted and walked through their links (the MapReduce data plane), and a map
// of float rates updated in place (the fabric's rate recomputation).
func (y *yardstick) slice() {
	t0, cpu0 := time.Now(), cpuSeconds()
	for i := 0; i < yardHandoffs; i++ {
		y.ping <- struct{}{}
		<-y.pong
	}
	var prev *yardRec
	for _, r := range y.recs {
		r.key, r.next = y.rand(), prev
		prev = r
	}
	slices.SortFunc(y.recs, func(a, b *yardRec) int {
		if a.key < b.key {
			return -1
		}
		return 1
	})
	for r := y.recs[len(y.recs)/2]; r != nil; r = r.next {
		y.sink += r.key & 1
	}
	for i := 0; i < yardUpdates; i++ {
		k := uint32(y.rand() % 1024)
		y.rates[k] = y.rates[k]*0.5 + float64(k)
	}
	y.read.wall += time.Since(t0).Seconds()
	y.read.cpu += cpuSeconds() - cpu0
	y.read.n++
}

// begin starts the periodic slices beside whatever the caller runs next. A
// nil yardstick does nothing and reads nothing.
func (y *yardstick) begin() {
	if y == nil {
		return
	}
	y.stop, y.done = make(chan struct{}), make(chan struct{})
	y.read = yardReading{}
	go func() {
		defer close(y.done)
		t := time.NewTimer(yardPeriod)
		defer t.Stop()
		for {
			select {
			case <-y.stop:
				return
			case <-t.C:
			}
			y.slice()
			t.Reset(yardPeriod)
		}
	}()
}

// end stops the slices, after a last one inside the interval so that even
// the shortest has a sample.
func (y *yardstick) end() yardReading {
	if y == nil {
		return yardReading{}
	}
	close(y.stop)
	<-y.done
	y.slice()
	return y.read
}
