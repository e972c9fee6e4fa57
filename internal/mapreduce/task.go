package mapreduce

import (
	"fmt"
	"math"
	"slices"

	"vhadoop/internal/sim"
	"vhadoop/internal/xen"
)

// runTask executes one attempt of t on tr's VM. Any failure (VM crash,
// tracker death mid-I/O) unwinds this process via p.Fail; the watcher in
// launch routes the outcome back to the scheduler.
func (c *Cluster) runTask(p *sim.Proc, tr *Tracker, t *task) {
	if t.job.finished() {
		return
	}
	vm := tr.VM
	// A running task dirties guest pages; the live-migration working-set
	// model feeds on this.
	vm.AddActivity(taskDirtyRate)
	defer vm.RemoveActivity(taskDirtyRate)

	// Task JVM launch and init.
	vm.Exec(p, t.job.cfg.Cost.TaskSetupCPU)

	if t.kind == MapTask {
		c.runMap(p, tr, t)
	} else {
		c.runReduce(p, tr, t)
	}
	// Completion report to the jobtracker.
	vm.Message(p, c.master, 512)
}

// spillPasses returns the number of extra merge passes needed when bytes
// exceed the sort buffer.
func (c *Cluster) spillPasses(bytes float64) int {
	if c.cfg.SortBufferBytes <= 0 || bytes <= c.cfg.SortBufferBytes {
		return 0
	}
	extra := int(math.Ceil(bytes/c.cfg.SortBufferBytes)) - 1
	if extra > maxSpillPasses {
		extra = maxSpillPasses
	}
	return extra
}

// runMap executes a map attempt: read the split (datanode-local when the
// scheduler achieved locality), run the real mapper over the real records,
// optionally combine, then sort and persist the partitioned output to the
// VM's disk, spilling in extra passes if it outgrows the sort buffer.
func (c *Cluster) runMap(p *sim.Proc, tr *Tracker, t *task) {
	vm := tr.VM
	job := t.job
	cost := job.cfg.Cost

	// Side inputs (distributed cluster state) are read by every map task.
	for _, name := range job.cfg.SideInput {
		f, err := c.dfs.Lookup(name)
		if err != nil {
			p.Fail(fmt.Errorf("map %d of %s: side input: %w", t.index, job.cfg.Name, err))
		}
		for _, b := range f.Blocks {
			if err := c.dfs.ReadBlock(p, vm, b); err != nil {
				p.Fail(fmt.Errorf("map %d of %s: side input: %w", t.index, job.cfg.Name, err))
			}
		}
	}

	if primary := t.split.primary(); primary != nil {
		t.wasLocal = c.dfs.IsLocal(primary, vm)
	}
	for _, part := range t.split.parts {
		if err := c.dfs.ReadRange(p, vm, part.block, part.bytes); err != nil {
			p.Fail(fmt.Errorf("map %d of %s: %w", t.index, job.cfg.Name, err))
		}
	}

	parts, sizes, emitted := c.mapOutput(&job.cfg, t.split.records)
	vm.Exec(p, cost.MapCPUPerByte*t.split.size+cost.MapCPUPerRecord*float64(len(t.split.records)))
	if job.cfg.NewCombiner != nil && job.cfg.NumReduces > 0 {
		vm.Exec(p, cost.CombineCPUPerRecord*float64(emitted))
	}

	var outBytes float64
	for _, s := range sizes {
		outBytes += s
	}

	if job.cfg.NumReduces == 0 {
		// Map-only job: commit output straight to HDFS.
		t.out = parts[0]
		t.outBytes = outBytes
		if job.cfg.Output != "" && outBytes > 0 {
			name := fmt.Sprintf("%s/part-m-%05d.%d", job.cfg.Output, t.index, t.attempts)
			if _, err := c.dfs.Write(p, vm, name, outBytes, parts[0]); err != nil {
				p.Fail(fmt.Errorf("map %d of %s: %w", t.index, job.cfg.Name, err))
			}
		}
		return
	}

	// Sort and persist the map output locally; extra merge passes when the
	// buffer overflows. mapOutput really sorted each partition (stable, so
	// equal keys keep emit order) — reducers then k-way merge the sorted
	// runs instead of re-sorting the full shuffled set.
	vm.Exec(p, cost.SortCPUPerByte*outBytes)
	vm.WriteDisk(p, outBytes)
	for i := 0; i < c.spillPasses(outBytes); i++ {
		vm.ReadDisk(p, outBytes)
		vm.WriteDisk(p, outBytes)
		t.spilled += 2 * outBytes
	}
	t.parts = parts
	t.partSizes = sizes
}

// mapOutput runs cfg's mapper over recs and returns its output split into
// partitions, with each partition's virtual bytes summed in emit order and
// the number of records the mapper emitted. Records reach their partition
// in emit order. When the job reduces, a combiner (if it has one) has
// folded each partition, and each partition is sorted by key: this is the
// map side's real spill work, whose CPU the caller charges.
//
// The mapper emits into c.scratch (see recordScratch for why reusing it is
// safe). Uncombined partitions are cap-limited sub-slices of one exact-size
// array. A combiner's input stays in the scratch, and only its output is
// kept.
func (c *Cluster) mapOutput(cfg *JobSpec, recs []KV) (parts [][]KV, sizes []float64, emitted int) {
	s := &c.scratch
	s.bind()
	nParts := max(cfg.NumReduces, 1)
	s.cfg, s.sizes = cfg, make([]float64, nParts)
	// Most mappers emit at least one record per input record.
	s.emitted = slices.Grow(s.emitted[:0], len(recs))
	s.part = slices.Grow(s.part[:0], len(recs))
	mapper := cfg.NewMapper()
	for _, rec := range recs {
		mapper.Map(rec.Key, rec.Value, s.emit)
	}
	if cm, ok := mapper.(ClosingMapper); ok {
		cm.Close(s.emit)
	}
	buf, part, sizes := s.emitted, s.part, s.sizes
	s.cfg, s.sizes = nil, nil
	emitted = len(buf)
	if cfg.NewCombiner == nil || cfg.NumReduces == 0 {
		parts = scatter(make([]KV, emitted), buf, part, nParts)
	} else {
		parts = combineGroups(buf, part, sizes, cfg.NewCombiner, s)
	}
	if cfg.NumReduces > 0 {
		for i := range parts {
			sortKVs(parts[i], s)
		}
	}
	clear(buf)
	s.emitted, s.part = buf[:0], part[:0]
	return parts, sizes, emitted
}

// scatter copies recs into dst, which has room for exactly len(recs)
// records, grouped by partition: part[i] is recs[i]'s partition of n, and
// each partition keeps emit order. Partition i comes back as a cap-limited
// sub-slice of dst, so appending to it cannot overwrite its neighbour.
func scatter(dst, recs []KV, part []int, n int) [][]KV {
	counts := make([]int, n)
	for _, idx := range part {
		counts[idx]++
	}
	parts := make([][]KV, n)
	off := 0
	for i, cnt := range counts {
		parts[i] = dst[off : off : off+cnt]
		off += cnt
	}
	for i, rec := range recs {
		parts[part[i]] = append(parts[part[i]], rec)
	}
	return parts
}

// runReduce executes a reduce attempt: fetch this partition from every
// completed map as completions arrive (the shuffle), merge/sort, run the
// real reducer over grouped keys and write the output to HDFS through a
// replication pipeline.
func (c *Cluster) runReduce(p *sim.Proc, tr *Tracker, t *task) {
	vm := tr.VM
	job := t.job
	cost := job.cfg.Cost

	fetched := make([]bool, len(job.maps))
	runs := make([][]KV, 0, len(job.maps))
	totalRecs := 0
	var totalBytes float64
	n := 0
	for n < len(job.maps) {
		if job.finished() {
			return
		}
		signal := job.mapDone // capture before scanning to avoid lost wakeups
		progress := false
		for i, mt := range job.maps {
			if fetched[i] || mt.state != TaskDone {
				continue
			}
			src := mt.tracker
			if src == nil || !src.Alive() {
				continue
			}
			recs := mt.parts[t.index]
			bytes := mt.partSizes[t.index]
			c.fetchMapOutput(p, src.VM, vm, bytes)
			runs = append(runs, recs)
			totalRecs += len(recs)
			totalBytes += bytes
			fetched[i] = true
			n++
			progress = true
		}
		if n >= len(job.maps) {
			break
		}
		if !progress {
			signal.Wait(p)
		}
	}
	t.shuffled = totalBytes
	job.noteShuffleDone(t)

	// Merge phase: on-disk merge passes if the fetched data outgrew the
	// buffer, then the in-memory merge itself. Each fetched run arrived
	// key-sorted from the map-side spill, so a stable k-way merge (ties to
	// the earliest-fetched run) replaces the full re-sort while producing
	// the identical record order.
	for i := 0; i < c.spillPasses(totalBytes); i++ {
		vm.WriteDisk(p, totalBytes)
		vm.ReadDisk(p, totalBytes)
		t.spilled += 2 * totalBytes
	}
	vm.Exec(p, cost.SortCPUPerByte*totalBytes)

	out := c.reduceOutput(&job.cfg, runs)
	vm.Exec(p, cost.ReduceCPUPerByte*totalBytes+cost.ReduceCPUPerRecord*float64(totalRecs))

	var outBytes float64
	for _, kv := range out {
		outBytes += kv.Size
	}
	t.out = out
	t.outBytes = outBytes
	if job.cfg.Output != "" && outBytes > 0 {
		name := fmt.Sprintf("%s/part-r-%05d.%d", job.cfg.Output, t.index, t.attempts)
		if _, err := c.dfs.Write(p, vm, name, outBytes, out); err != nil {
			p.Fail(fmt.Errorf("reduce %d of %s: %w", t.index, job.cfg.Name, err))
		}
	}
}

// reduceOutput merges a reduce's fetched runs, in fetch order, and runs
// cfg's reducer over the merged records. Like mapOutput it takes no
// *sim.Proc, so the merge can use c.scratch: only the reducer's output is
// kept.
func (c *Cluster) reduceOutput(cfg *JobSpec, runs [][]KV) []KV {
	s := &c.scratch
	out := reduceSorted(mergeRuns(runs, s), cfg.NewReducer(), s)
	clear(s.merged)
	s.merged = s.merged[:0]
	return out
}

// fetchMapOutput moves one map-output partition from src to dst: a fetch
// RPC, then the source disk read streaming into the network transfer, as
// two I/O stages that own no process and whose records ReadAndSend
// recycles. A same-VM fetch is the disk read alone, as this process.
func (c *Cluster) fetchMapOutput(p *sim.Proc, src, dst *xen.VM, bytes float64) {
	dst.Message(p, src, 128)
	p.Sleep(fetchOverhead)
	if bytes <= 0 {
		return
	}
	if src == dst {
		dst.ReadDisk(p, bytes)
		return
	}
	if err := src.ReadAndSend(p, dst, 0, bytes); err != nil {
		p.Fail(err)
	}
}
