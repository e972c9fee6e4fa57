// Package sim implements the deterministic discrete-event simulation engine
// that underlies every performance experiment in this repository.
//
// The engine advances a virtual clock (float64 seconds) through a priority
// queue of events. Simulated activities are written as ordinary imperative Go
// functions running in "processes": goroutines that hand control back and
// forth with the engine so that exactly one goroutine is runnable at any
// time. This keeps user code readable (a MapReduce task is a straight-line
// function that sleeps, acquires resources and waits on signals) while the
// whole simulation stays deterministic and reproducible from a seed.
//
// Building blocks:
//
//   - Engine: the clock, the event heap and the run loop. Fired events
//     are recycled through a free list, so scheduling allocates nothing
//     in steady state. Engine.At and Engine.After return no handle:
//     nothing outside the engine cancels an event. MaxMin keeps its one
//     completion event and re-arms it in place.
//   - Proc: a simulated process; created with Engine.Spawn.
//   - Done: a one-shot completion latch processes can wait on.
//   - Gate: an open/closed barrier (used e.g. to pause virtual machines
//     during the stop-and-copy phase of live migration).
//   - Queue: a counting semaphore with FIFO wakeup (task slots, bounded
//     buffers).
//   - MaxMin: the one max-min fair rate solver. Activities progress over
//     the resources they use at progressive-filling rates, optionally
//     capped; it integrates progress and fires completions. FairShare and
//     vnet.Fabric are front-ends over it.
//   - FairShare: a processor-sharing resource (CPU pools, disks), a MaxMin
//     with one resource; N jobs in service each progress at capacity/N,
//     optionally capped per job. This is the building block for the Xen
//     credit scheduler and for disk contention.
//
// All times are in seconds, all data volumes in bytes, all rates in bytes or
// work-units per second, matching the conventions used across internal/vnet,
// internal/xen and internal/mapreduce.
package sim
