package hdfs

import (
	"vhadoop/internal/obs"
)

// instruments caches the cluster's metric handles (see mapreduce's
// twin); nil when no plane is attached.
type instruments struct {
	bytesWritten      *obs.Counter
	bytesRead         *obs.Counter
	pipelineFailovers *obs.Counter
	readFailovers     *obs.Counter
	replRepairs       *obs.Counter
	repairFailures    *obs.Counter

	files           *obs.Gauge
	datanodesLive   *obs.Gauge
	underReplicated *obs.Gauge
}

// SetObs attaches the observability plane: block writes and repair
// transfers get spans, failovers become typed events, and the registry
// gains the hdfs_* metric family. Without a plane the cluster records
// no events.
func (c *Cluster) SetObs(pl *obs.Plane) {
	c.obs = pl
	if pl == nil {
		c.instr = nil
		return
	}
	c.instr = &instruments{
		bytesWritten:      pl.Counter("hdfs_bytes_written_total"),
		bytesRead:         pl.Counter("hdfs_bytes_read_total"),
		pipelineFailovers: pl.Counter("hdfs_pipeline_failovers_total"),
		readFailovers:     pl.Counter("hdfs_read_failovers_total"),
		replRepairs:       pl.Counter("hdfs_repl_repairs_total"),
		repairFailures:    pl.Counter("hdfs_repair_failures_total"),

		files:           pl.Gauge("hdfs_files"),
		datanodesLive:   pl.Gauge("hdfs_datanodes_live"),
		underReplicated: pl.Gauge("hdfs_under_replicated_blocks"),
	}
	pl.Registry().OnCollect(c.collect)
}

// collect refreshes the namespace and replication-health gauges. These
// fold live state at snapshot time only — nothing on the write/read hot
// paths maintains them.
func (c *Cluster) collect() {
	in := c.instr
	in.files.Set(float64(len(c.files)))
	in.datanodesLive.Set(float64(c.numAlive()))
	in.underReplicated.Set(float64(len(c.UnderReplicated())))
}
