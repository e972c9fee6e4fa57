// Package hdfs implements the Hadoop Distributed File System layer of the
// vHadoop platform: a namenode that maps files to replicated blocks, and
// datanodes (one per worker VM) that store block data on their NFS-backed
// virtual disks.
//
// Files carry both a virtual size (which drives all I/O and network costs)
// and, optionally, real records (which MapReduce jobs actually process), so
// a 1 GB Wordcount input can be simulated at full I/O cost while the mapper
// code counts real words from a down-scaled corpus.
package hdfs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"vhadoop/internal/obs"
	"vhadoop/internal/sim"
	"vhadoop/internal/xen"
)

// Errors returned by namenode operations.
var (
	ErrFileExists   = errors.New("hdfs: file already exists")
	ErrFileNotFound = errors.New("hdfs: file not found")
	ErrNoDatanodes  = errors.New("hdfs: no live datanodes")
	ErrNoReplica    = errors.New("hdfs: no live replica for block")
)

// errMonitorStopped unwinds the replication monitor daemon on shutdown.
var errMonitorStopped = errors.New("hdfs: replication monitor stopped")

// Config mirrors the Hadoop parameters the paper's Hadoop Module sets.
type Config struct {
	BlockSize   float64 // dfs.block.size, bytes
	Replication int     // dfs.replication
	// PMAware enables physical-machine-aware placement and replica
	// selection, the equivalent of configuring a rack topology script. The
	// paper's virtual clusters (like most simple Hadoop-on-VMs setups) have
	// none, so by default HDFS sees one flat rack: the second replica lands
	// on an arbitrary node and readers pick among non-local replicas blindly
	// — which is precisely why a cross-domain cluster keeps crossing the
	// slow inter-machine link.
	PMAware bool
	// UseHostCache serves repeated block reads from the dom0 page cache,
	// as the era's file-backed (loopback) Xen disk driver did: recently
	// written blocks are re-read from host memory, so HDFS reads are fast
	// on the machine holding the replica — and a cross-domain cluster pays
	// the gigabit link whenever the replica sits on the other machine.
	// Disabling it models blktap's O_DIRECT mode, where every block read
	// hits the NFS filer (an ablation benchmark covers the difference).
	UseHostCache bool
	// ReplMonitorInterval is the period of the namenode's background
	// replication monitor (dfs.replication.interval): every interval it
	// scans for under-replicated blocks and re-copies them from surviving
	// replicas. 0 disables the daemon, preserving the seed's happy-path
	// behavior where repair traffic flows only on explicit ReReplicate.
	ReplMonitorInterval sim.Time
}

// DefaultConfig matches Hadoop 0.20 defaults as deployed in the paper's
// 16-node virtual clusters (64 MB blocks; replication 2 keeps a copy on a
// second node without tripling traffic on a small cluster).
func DefaultConfig() Config {
	return Config{BlockSize: 64e6, Replication: 2, UseHostCache: true}
}

// Record is one logical input/output record: a real key/value pair plus the
// number of virtual bytes it stands for.
type Record struct {
	Key   string
	Value any
	Size  float64
}

// Block is one replicated HDFS block.
type Block struct {
	ID       int
	File     string
	Index    int
	Size     float64
	Replicas []*Datanode // live replicas
	// Records are the real records this block carries: a cap-limited
	// sub-slice of the slice handed to Write, shared with the writer and
	// read-only.
	Records []Record
	key     string // span name, built once by tag
}

// tag returns the block's span name, "blk-<id>", building it on first use
// so the block's write and repair spans share one string.
func (b *Block) tag() string {
	if b.key == "" {
		b.key = "blk-" + strconv.Itoa(b.ID)
	}
	return b.key
}

// File is a namenode file entry.
type File struct {
	Name   string
	Size   float64
	Blocks []*Block
}

// NumRecords returns the total record count across all blocks.
func (f *File) NumRecords() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Records)
	}
	return n
}

// Datanode stores blocks on one worker VM. The struct is the namenode's
// per-node metadata record — index and liveness — so it is
// shared (namenode-owned) state; the machine-side of a datanode is its
// VM, whose disk and NIC the I/O paths charge through xen.VM.
type Datanode struct {
	VM    *xen.VM
	index int // position in Cluster.datanodes
	dead  bool
}

// Index returns the datanode's registration index: its position in
// Cluster.Datanodes(), stable for the cluster's lifetime.
func (d *Datanode) Index() int { return d.index }

// Alive reports whether the datanode is serving.
func (d *Datanode) Alive() bool {
	return !d.dead && d.VM.State() != xen.StateCrashed && d.VM.State() != xen.StateShutdown
}

// Cluster is one HDFS instance: a namenode VM plus datanodes.
type Cluster struct {
	cfg       Config
	namenode  *xen.VM
	datanodes []*Datanode
	files     map[string]*File
	nextBlock int
	rng       *rand.Rand  // placement and replica selection randomness
	monitor   *sim.Proc   // background replication daemon, nil when stopped
	live      []*Datanode // choosePipeline's scratch; it never yields

	bytesWritten float64
	bytesRead    float64

	obs   *obs.Plane // nil outside core.NewPlatform; every use is guarded
	instr *instruments
}

// NewCluster creates an empty HDFS instance served by the given namenode VM.
func NewCluster(cfg Config, namenode *xen.VM) *Cluster {
	if cfg.BlockSize <= 0 {
		panic("hdfs: block size must be positive")
	}
	if cfg.Replication < 1 {
		panic("hdfs: replication must be at least 1")
	}
	return &Cluster{
		cfg:      cfg,
		namenode: namenode,
		files:    make(map[string]*File),
		rng:      namenode.Engine().Rand(),
	}
}

// AddDatanode registers vm as a datanode and returns its handle.
func (c *Cluster) AddDatanode(vm *xen.VM) *Datanode {
	d := &Datanode{VM: vm, index: len(c.datanodes)}
	c.datanodes = append(c.datanodes, d)
	return d
}

// Datanodes returns all datanodes in registration order.
func (c *Cluster) Datanodes() []*Datanode { return c.datanodes }

// DatanodeOf returns the datanode running on vm, or nil.
func (c *Cluster) DatanodeOf(vm *xen.VM) *Datanode {
	for _, d := range c.datanodes {
		if d.VM == vm {
			return d
		}
	}
	return nil
}

// BytesWritten and BytesRead return cumulative HDFS data-path traffic.
func (c *Cluster) BytesWritten() float64 { return c.bytesWritten }
func (c *Cluster) BytesRead() float64    { return c.bytesRead }

// Lookup returns the file entry for name.
func (c *Cluster) Lookup(name string) (*File, error) {
	f, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, name)
	}
	return f, nil
}

// Exists reports whether name is in the namespace.
func (c *Cluster) Exists(name string) bool {
	_, ok := c.files[name]
	return ok
}

// Files returns all file names, sorted.
func (c *Cluster) Files() []string {
	names := make([]string, 0, len(c.files))
	for n := range c.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// appendAlive appends the live datanodes to dst, in registration order.
func (c *Cluster) appendAlive(dst []*Datanode) []*Datanode {
	for _, d := range c.datanodes {
		if d.Alive() {
			dst = append(dst, d)
		}
	}
	return dst
}

// numAlive returns the number of live datanodes.
func (c *Cluster) numAlive() int {
	n := 0
	for _, d := range c.datanodes {
		if d.Alive() {
			n++
		}
	}
	return n
}

// choosePipeline picks replica targets for one block using Hadoop's policy
// adapted to the testbed: first replica on the writer's own datanode when it
// has one, second on a different physical machine when possible, the rest
// round-robin. It never yields, so it lists the live datanodes in c.live;
// the pipeline it returns is the one slice it allocates, at its final size.
func (c *Cluster) choosePipeline(client *xen.VM) ([]*Datanode, error) {
	c.live = c.appendAlive(c.live[:0])
	live := c.live
	if len(live) == 0 {
		return nil, ErrNoDatanodes
	}
	want := c.cfg.Replication
	if want > len(live) {
		want = len(live)
	}
	pipeline := make([]*Datanode, 0, want)
	// First replica: local datanode if the writer hosts one.
	if local := c.DatanodeOf(client); local != nil && local.Alive() {
		pipeline = append(pipeline, local)
	}
	// Second replica: with a rack topology configured, prefer a different
	// physical machine ("off-rack"); without one, HDFS picks at random. The
	// pipeline holds only the local node here, on srcPM.
	if c.cfg.PMAware && len(pipeline) > 0 && len(pipeline) < want {
		srcPM := pipeline[0].VM.Host()
		off := c.rng.Intn(len(live))
		for i := range live {
			d := live[(off+i)%len(live)]
			if d.VM.Host() != srcPM {
				pipeline = append(pipeline, d)
				break
			}
		}
	}
	// Fill the rest from random nodes (flat-rack default policy).
	for start := c.rng.Intn(len(live)); len(pipeline) < want; start++ {
		if d := live[start%len(live)]; !slices.Contains(pipeline, d) {
			pipeline = append(pipeline, d)
		}
	}
	return pipeline, nil
}

// splitRecords partitions records into per-block groups by cumulative
// virtual size, mirroring how HDFS cuts a stream into blocks. Record sizes
// must be non-negative and finite (Write checks), so the cumulative size —
// and with it the block index — never decreases: every group is one
// contiguous range of records, returned as a cap-limited sub-slice (nil
// when empty) that shares records' backing array without letting an
// append spill into the next group.
func splitRecords(records []Record, size, blockSize float64) [][]Record {
	nBlocks := int(size / blockSize)
	if float64(nBlocks)*blockSize < size {
		nBlocks++
	}
	if nBlocks == 0 {
		nBlocks = 1
	}
	groups := make([][]Record, nBlocks)
	cum := 0.0
	lo, cur := 0, 0
	for i, r := range records {
		idx := int(cum / blockSize)
		if idx >= nBlocks {
			idx = nBlocks - 1
		}
		if idx != cur {
			if lo < i {
				groups[cur] = records[lo:i:i]
			}
			lo, cur = i, idx
		}
		cum += r.Size
	}
	if lo < len(records) {
		groups[cur] = records[lo:len(records):len(records)]
	}
	return groups
}

// checkRecordSizes rejects record sizes splitRecords cannot place: a
// negative size walks the cumulative offset backwards (far enough, to a
// negative block index), and NaN or an infinity has no block at all.
func checkRecordSizes(records []Record) error {
	for i, r := range records {
		if r.Size < 0 || math.IsNaN(r.Size) || math.IsInf(r.Size, 0) {
			return fmt.Errorf("record %d (%q) has size %v, want finite and non-negative", i, r.Key, r.Size)
		}
	}
	return nil
}

// Write creates a file of the given virtual size carrying records, streaming
// each block through a replication pipeline: writer -> DN1 -> DN2 -> ...
// with each datanode persisting to its NFS-backed disk. Pipeline stages
// stream concurrently, so a block costs roughly its slowest hop.
//
// Write takes ownership of records without copying them: each block's
// Records is a sub-slice of it, so the caller must not modify the slice
// afterwards. Every record size must be finite and non-negative.
func (c *Cluster) Write(p *sim.Proc, client *xen.VM, name string, size float64, records []Record) (*File, error) {
	if c.Exists(name) {
		return nil, fmt.Errorf("%w: %s", ErrFileExists, name)
	}
	if size <= 0 {
		return nil, fmt.Errorf("hdfs: write %s: non-positive size", name)
	}
	if err := checkRecordSizes(records); err != nil {
		return nil, fmt.Errorf("hdfs: write %s: %w", name, err)
	}
	// Namenode RPC: create + one allocate per block.
	client.Message(p, c.namenode, 512)

	groups := splitRecords(records, size, c.cfg.BlockSize)
	f := &File{Name: name, Size: size, Blocks: make([]*Block, 0, len(groups))}
	remaining := size
	for i := range groups {
		bsize := c.cfg.BlockSize
		if bsize > remaining {
			bsize = remaining
		}
		remaining -= bsize
		pipeline, err := c.choosePipeline(client)
		if err != nil {
			return nil, fmt.Errorf("hdfs: write %s: %w", name, err)
		}
		c.nextBlock++
		b := &Block{
			ID:      c.nextBlock,
			File:    name,
			Index:   i,
			Size:    bsize,
			Records: groups[i],
		}
		client.Message(p, c.namenode, 256) // allocateBlock
		sp := c.obs.Start(obs.KindHDFSWrite, b.tag(), nil).SetAttr("file", name)
		if err := c.writeBlock(p, client, b, pipeline, sp); err != nil {
			sp.SetAttr("error", err.Error()).Finish()
			return nil, fmt.Errorf("hdfs: write %s block %d: %w", name, i, err)
		}
		sp.SetFloat("bytes", bsize).SetAttr("replicas", strconv.Itoa(len(b.Replicas))).Finish()
		f.Blocks = append(f.Blocks, b)
	}
	c.files[name] = f
	return f, nil
}

// writeBlock streams one block through the pipeline, recovering from
// datanode deaths mid-stream the way the real DFS client does: the pipeline
// is rebuilt from the surviving datanodes and the block is resent through
// them. A shortened pipeline leaves the block under-replicated; the
// replication monitor repairs that later. Only a dead client (or losing
// every pipeline node) fails the write. The pipeline, shrunk in place,
// becomes the block's replica list.
func (c *Cluster) writeBlock(p *sim.Proc, client *xen.VM, b *Block, pipeline []*Datanode, sp *obs.Span) error {
	for {
		err := c.streamBlock(p, client, b, pipeline)
		if err == nil {
			b.Replicas = pipeline
			c.bytesWritten += b.Size * float64(len(pipeline))
			if c.instr != nil {
				c.instr.bytesWritten.Add(b.Size * float64(len(pipeline)))
			}
			return nil
		}
		if s := client.State(); s == xen.StateCrashed || s == xen.StateShutdown {
			return err // the writer itself died; nothing to fail over to
		}
		survivors := 0
		for _, d := range pipeline {
			if d.Alive() {
				survivors++
			}
		}
		// Retry only when a pipeline node actually died (the pipeline
		// strictly shrinks, so this terminates); any other failure — or
		// losing every node — propagates.
		if survivors == 0 || survivors == len(pipeline) {
			return err
		}
		if c.instr != nil {
			c.instr.pipelineFailovers.Inc()
		}
		sp.Eventf("hdfs: pipeline for block %d of %s shrunk %d->%d, resending",
			b.ID, b.File, len(pipeline), survivors)
		pipeline = slices.DeleteFunc(pipeline, func(d *Datanode) bool { return !d.Alive() })
	}
}

// streamBlock pushes one block through the pipeline. All hops and disk
// writes run concurrently (streaming), so the block costs its slowest
// stage. Each stage is a xen.IOProc, a send then a disk write that chain
// from latch callbacks without a process of their own; it returns the first
// stage's error, in pipeline order.
func (c *Cluster) streamBlock(p *sim.Proc, client *xen.VM, b *Block, pipeline []*Datanode) error {
	key := c.storeKey(b)
	var buf [4]*xen.IOProc // holds the default and most custom pipelines
	stages := buf[:0]
	prev := client
	for _, d := range pipeline {
		stages = append(stages, prev.SpawnStore(d.VM, key, b.Size))
		prev = d.VM
	}
	var err error
	for _, s := range stages {
		if serr := s.Wait(p); err == nil {
			err = serr
		}
	}
	return err
}

// storeKey returns the page-cache block id a write of b stores under: b's
// id, or 0 when writes bypass the host cache.
func (c *Cluster) storeKey(b *Block) uint64 {
	if c.cfg.UseHostCache {
		return uint64(b.ID)
	}
	return 0
}

// bestReplica picks the replica a client reads from. A same-VM replica is
// always preferred (HDFS short-circuit locality). Beyond that, replica
// selection is PM-aware only when a rack topology is configured; otherwise
// all non-local replicas look equidistant and the choice rotates blindly —
// routinely pulling blocks across the inter-machine link in a cross-domain
// cluster.
//
// The candidates are the live replicas on the client's machine, then the
// remote ones, each in replica order; without a rack topology they form
// one tier. bestReplica counts them in place and walks to the one its draw
// picks.
func (c *Cluster) bestReplica(b *Block, client *xen.VM) (*Datanode, error) {
	samePM, remote := 0, 0
	for _, d := range b.Replicas {
		switch {
		case !d.Alive():
		case d.VM == client:
			return d, nil
		case d.VM.Host() == client.Host():
			samePM++
		default:
			remote++
		}
	}
	n := samePM + remote
	if c.cfg.PMAware && samePM > 0 {
		n = samePM // a same-machine replica beats every remote one
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: block %d of %s", ErrNoReplica, b.ID, b.File)
	}
	k := c.rng.Intn(n)
	onPM := k < samePM
	if !onPM {
		k -= samePM
	}
	for _, d := range b.Replicas {
		if d.Alive() && (d.VM.Host() == client.Host()) == onPM {
			if k == 0 {
				return d, nil
			}
			k--
		}
	}
	panic("hdfs: bestReplica lost count of its candidates")
}

// ReadBlock moves one block's data to the client VM: the serving replica
// reads its disk while streaming to the client (concurrent, slowest stage
// wins). A same-VM replica costs only the disk read.
func (c *Cluster) ReadBlock(p *sim.Proc, client *xen.VM, b *Block) error {
	return c.ReadRange(p, client, b, b.Size)
}

// ReadRange is ReadBlock for a byte sub-range of the block (MapReduce splits
// finer than one block read only their share). A replica that dies mid-read
// triggers failover: the client re-requests the range from the best
// surviving replica, exactly as the DFS client walks its location list.
func (c *Cluster) ReadRange(p *sim.Proc, client *xen.VM, b *Block, bytes float64) error {
	if bytes <= 0 {
		return nil
	}
	if bytes > b.Size {
		bytes = b.Size
	}
	for {
		d, err := c.bestReplica(b, client)
		if err != nil {
			return err
		}
		rerr := c.readFrom(p, client, d, b, bytes)
		if rerr == nil {
			c.bytesRead += bytes
			if c.instr != nil {
				c.instr.bytesRead.Add(bytes)
			}
			return nil
		}
		// Fail over only when the serving replica actually died (it can
		// never be re-picked, so this terminates); a failure with the
		// replica still alive means the client itself died — propagate.
		if d.Alive() {
			return rerr
		}
		if c.instr != nil {
			c.instr.readFailovers.Inc()
		}
		c.obs.Eventf(obs.KindRepair, "hdfs: read failover for block %d of %s: replica on %s died",
			b.ID, b.File, d.VM.Name)
	}
}

// readFrom moves bytes of block b from replica d to the client. The disk
// read and the network send run at once, as two xen.IOProc stages that own
// no process; the O_DIRECT path is one relay stage.
func (c *Cluster) readFrom(p *sim.Proc, client *xen.VM, d *Datanode, b *Block, bytes float64) error {
	if c.cfg.UseHostCache {
		return d.VM.ReadAndSend(p, client, uint64(b.ID), bytes)
	}
	// O_DIRECT path: one coupled relay flow filer -> replica host -> client.
	return d.VM.SpawnRelay(client, bytes).Wait(p)
}

// Read moves a whole file to the client VM, block by block, and returns its
// entry. One namenode RPC resolves the block locations.
func (c *Cluster) Read(p *sim.Proc, client *xen.VM, name string) (*File, error) {
	f, err := c.Lookup(name)
	if err != nil {
		return nil, err
	}
	client.Message(p, c.namenode, 512)
	for _, b := range f.Blocks {
		if err := c.ReadBlock(p, client, b); err != nil {
			return nil, fmt.Errorf("hdfs: read %s: %w", name, err)
		}
	}
	return f, nil
}

// IsLocal reports whether vm holds a replica of b.
func (c *Cluster) IsLocal(b *Block, vm *xen.VM) bool {
	for _, d := range b.Replicas {
		if d.Alive() && d.VM == vm {
			return true
		}
	}
	return false
}

// Decommission marks a datanode dead; its replicas stop serving. The blocks
// it held become under-replicated and are repaired by the next pass of the
// replication monitor (or an explicit ReReplicate) — while the node's VM
// still runs, its intact disk can even source the repair copies.
func (c *Cluster) Decommission(d *Datanode) { d.dead = true }

// StartReplicationMonitor spawns the namenode's background replication
// daemon: every interval it scans for under-replicated blocks and copies
// them back to full strength from surviving replicas. A datanode dying
// mid-copy only voids that copy — the daemon retries on a later pass. Runs
// until StopReplicationMonitor; a second Start is a no-op. Unlike the
// heartbeats and the other sleep loops it stays a process, not a timer
// chain: ReReplicate blocks on the copies it starts, and the stop is an
// Abort that wakes it from its sleep.
func (c *Cluster) StartReplicationMonitor(interval sim.Time) {
	if c.monitor != nil || interval <= 0 {
		return
	}
	e := c.namenode.Engine()
	c.monitor = e.Spawn("hdfs-repl-monitor", func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			if n := c.ReReplicate(p); n > 0 {
				c.obs.Eventf(obs.KindRepair, "replication monitor created %d replicas", n)
			}
		}
	})
}

// StopReplicationMonitor terminates the replication daemon, waking it from
// its current sleep so the engine can drain.
func (c *Cluster) StopReplicationMonitor() {
	if c.monitor != nil {
		c.monitor.Abort(errMonitorStopped)
		c.monitor = nil
	}
}

// UnderReplicated returns blocks with fewer live replicas than configured,
// or than there are live datanodes if that is fewer.
func (c *Cluster) UnderReplicated() []*Block {
	want := c.cfg.Replication
	if alive := c.numAlive(); want > alive {
		want = alive
	}
	var out []*Block
	for _, name := range c.Files() {
		for _, b := range c.files[name].Blocks {
			if countLive(b) < want {
				out = append(out, b)
			}
		}
	}
	return out
}

func countLive(b *Block) int {
	n := 0
	for _, d := range b.Replicas {
		if d.Alive() {
			n++
		}
	}
	return n
}

// ReReplicate restores the configured replication factor for every
// under-replicated block (the namenode's replication monitor, normally a
// background daemon; exposed as an explicit operation so experiments control
// when the repair traffic flows). For each block a surviving replica streams
// the data to a new target chosen like a fresh placement. Returns the number
// of new replicas created.
func (c *Cluster) ReReplicate(p *sim.Proc) int {
	created := 0
	for _, b := range c.UnderReplicated() {
		var src *Datanode
		held := make(map[*Datanode]bool, len(b.Replicas))
		for _, d := range b.Replicas {
			if d.Alive() {
				held[d] = true
				if src == nil {
					src = d
				}
			}
		}
		if src == nil {
			// Graceful decommission: a drained datanode no longer serves,
			// but while its VM still runs the disk is intact and can source
			// the repair copies (HDFS's decommissioning-in-progress state).
			for _, d := range b.Replicas {
				if d.VM.State() == xen.StateRunning {
					src = d
					break
				}
			}
		}
		if src == nil {
			continue // unrecoverable: no live replica holds the data
		}
		live := c.appendAlive(nil) // a copy of its own: the copies below block
		want := c.cfg.Replication
		if want > len(live) {
			want = len(live)
		}
		for countLive(b) < want {
			var target *Datanode
			for i, off := 0, c.rng.Intn(len(live)); i < len(live); i++ {
				d := live[(off+i)%len(live)]
				if !held[d] {
					target = d
					break
				}
			}
			if target == nil {
				break
			}
			// The copy runs as its own I/O stage, so a source or target VM
			// dying mid-stream fails only this transfer, not the caller
			// (which may be the long-lived replication monitor daemon).
			sp := c.obs.Start(obs.KindRepair, b.tag(), nil).
				SetAttr("src", src.VM.Name).SetAttr("dst", target.VM.Name)
			if err := src.VM.SpawnStore(target.VM, c.storeKey(b), b.Size).Wait(p); err != nil {
				// A later monitor pass re-picks source and target, but the
				// cause must reach the trace: a silently dropped transfer
				// failure here is indistinguishable from the monitor never
				// trying, which makes chaos-run divergence undiagnosable.
				if c.instr != nil {
					c.instr.repairFailures.Inc()
				}
				sp.Eventf("hdfs: re-replication of block %d of %s failed: %v", b.ID, b.File, err)
				sp.SetAttr("error", err.Error()).Finish()
				break
			}
			sp.SetFloat("bytes", b.Size).Finish()
			b.Replicas = append(b.Replicas, target)
			held[target] = true
			c.bytesWritten += b.Size
			if c.instr != nil {
				c.instr.replRepairs.Inc()
				c.instr.bytesWritten.Add(b.Size)
			}
			created++
		}
	}
	return created
}
