// Package sim implements the deterministic discrete-event simulation engine
// that underlies every performance experiment in this repository.
//
// The engine advances a virtual clock (float64 seconds) through a priority
// queue of events. Simulated activities are written as ordinary imperative Go
// functions running in "processes": coroutines that the engine resumes when
// their event fires and that park again at every blocking call, so exactly
// one of them, or the engine, runs at any time. This keeps user code
// readable (a MapReduce task is a straight-line function that sleeps,
// acquires resources and waits on signals) while the whole simulation stays
// deterministic and reproducible from a seed. A daemon whose body never
// blocks between its sleeps (a heartbeat, a sampler) is instead a chain of
// Engine.At/After callbacks: a timer costs less than a process hand-off,
// and each step draws the same one event a Spawn or Sleep would. So is an
// I/O stage that only sequences latches (xen's IOProc): it waits through
// Done.FiredOr and Gate.OpenOr, whose callbacks draw the one event a
// parked process's wake would.
//
// Building blocks:
//
//   - Engine: the clock, the event heap, the ready FIFO, the lanes and the
//     run loop. An event due at the current instant (a process wakeup, a
//     spawn, a zero delay) goes on the ready FIFO instead of the heap, and
//     a callback on a Lane (Engine.NewLane(d), Lane.After) waits the
//     lane's fixed delay in a ring of its own: a timer chain whose every
//     step waits the same interval, such as the tasktracker heartbeat,
//     queues there. The run loop pops whichever of the ready FIFO's head,
//     the heap's top and each lane's head has the smallest (time, sequence
//     number), so the order is one heap's. RunUntil returns with the ready
//     FIFO empty. Fired events are recycled through a free list and a
//     lane's ring is reused in place, so scheduling allocates nothing in
//     steady state. Engine.Stats counts the pops off each queue.
//     Engine.At, Engine.After and Engine.FireAfter return no handle:
//     nothing outside the engine cancels an event. MaxMin keeps its one
//     completion event and re-arms it in place. A time before now, or NaN,
//     panics.
//   - Proc: a simulated process; created with Engine.Spawn. Its body runs
//     on a carrier, an iter.Pull coroutine: dispatch calls the carrier's
//     next, and a blocking call parks it. A carrier whose body returned
//     goes on the engine's free list and runs the next process to start,
//     so a spawn allocates only its Proc. A drained Run and Shutdown stop
//     the idle carriers, and a panic or runtime.Goexit in a body reaches
//     the goroutine that called Run.
//     Engine.SpawnInto starts a process in a record the caller owns; it
//     is the one start path, and Spawn is SpawnInto over a new Proc. It
//     accepts a zero Proc or a Reusable one, whose last process
//     terminated with a nil Err and was not killed, and panics on any
//     other. Such a process was running when it ended, and every wake
//     removes the waiter it wakes, so nothing still names the record.
//     Abort wakes a process without taking it off the latch, gate, timer
//     or solver job it was parked on, so an aborted record is never
//     reused: an aborted process always ends with a non-nil Err, even one
//     whose body returned before the abort could unwind it.
//   - Done: a one-shot completion latch processes can wait on, and code
//     that is not a process can register a Callback on (FiredOr). Fire
//     wakes both kinds in registration order, one event each. Its zero
//     value is ready to use, so owners embed it.
//   - Gate: an open/closed barrier (used e.g. to pause virtual machines
//     during the stop-and-copy phase of live migration). Its one FIFO of
//     waiters holds parked processes and, through OpenOr, callbacks of
//     timer chains; Open wakes them in registration order.
//   - Queue: a counting semaphore with FIFO wakeup (task slots, bounded
//     buffers). Its line holds waiters by value behind a head index.
//   - MaxMin: the one max-min fair rate solver. Activities progress over
//     the resources they use at progressive-filling rates, optionally
//     capped; it integrates progress and, at retirement, fires each
//     activity's latch, at once or after a fixed lag. Activities that
//     share a uses slice and a cap form a class, which is its unit: one
//     rate and one progress clock per class. Every start, retune and
//     completion retires what is finished and re-rates the classes left
//     at once. Engine.Stats also counts its re-rates and filling work.
//     FairShare and vnet.Fabric are front-ends over it.
//   - FairShare: a processor-sharing resource (CPU pools, disks), a MaxMin
//     with one resource; N jobs in service each progress at capacity/N,
//     optionally capped per job. This is the building block for the Xen
//     credit scheduler and for disk contention. Use, and the Begin/End
//     pair, recycle their job records through a free list on the
//     FairShare; they are its only ways in. A caller that is not a process
//     splits End into a FiredOr on Job.Done and a Recycle.
//
// Blocking waits allocate nothing in steady state: Sleep, Done.Wait,
// Queue.Acquire, FairShare.Use and FairShare.End. A process aborted or
// killed inside Use or End unwinds past the point where its job record is recycled, so the job stays
// with the solver, is served to completion and is never reused; starting a
// MaxMin activity that is still in service panics.
//
// All times are in seconds, all data volumes in bytes, all rates in bytes or
// work-units per second, matching the conventions used across internal/vnet,
// internal/xen and internal/mapreduce.
package sim
