// Package tuner is the MapReduce Tuner module of the vHadoop platform: it
// turns the nmon analyser's report plus recent job statistics into concrete
// adjustments — re-configuring Hadoop parameters or triggering live
// migration to consolidate a cross-domain cluster — exactly the two levers
// the paper gives its Tuner.
package tuner

import (
	"fmt"

	"vhadoop/internal/mapreduce"
	"vhadoop/internal/nmon"
)

// Metrics is everything the tuner looks at for one decision round.
type Metrics struct {
	Report      nmon.Report
	RecentJobs  []mapreduce.JobStats
	CrossDomain bool // VMs currently span two physical machines
	MRConfig    mapreduce.Config
	// DeadNodes counts datanodes/tasktrackers lost since the last round
	// (crashed VMs, failed machines, decommissions not yet repaired).
	DeadNodes int
	// UnderReplicated counts HDFS blocks below their replication target
	// (hdfs.Cluster.UnderReplicated).
	UnderReplicated int
}

// Action identifies what a recommendation changes.
type Action string

// The tuner's action vocabulary.
const (
	ActionConsolidate     Action = "consolidate-cluster"  // live-migrate VMs onto one PM
	ActionIncreaseSortBuf Action = "increase-sort-buffer" // io.sort.mb
	ActionIncreaseSlots   Action = "increase-map-slots"   // map.tasks.maximum
	ActionDecreaseSlots   Action = "decrease-map-slots"
	ActionEnableSpec      Action = "enable-speculation"
	ActionLargerBlocks    Action = "increase-block-size" // dfs.block.size
	ActionRepairReplica   Action = "repair-replication"  // re-replicate lost blocks
)

// Recommendation is one proposed adjustment with its evidence.
type Recommendation struct {
	Action Action
	Reason string
}

func (r Recommendation) String() string { return fmt.Sprintf("%s: %s", r.Action, r.Reason) }

// Thresholds tune the rules.
type Thresholds struct {
	NetworkHot float64 // link utilisation considered saturated
	DiskHot    float64
	CPUHot     float64
	CPUCold    float64
	// SpillFraction: spilled bytes / shuffled bytes above this means the
	// sort buffer is undersized.
	SpillFraction float64
	// StragglerAttempts: attempts beyond tasks per job indicating stragglers.
	StragglerAttempts int
}

// DefaultThresholds gives the paper-calibrated rule set.
func DefaultThresholds() Thresholds {
	return Thresholds{
		NetworkHot:        0.85,
		DiskHot:           0.85,
		CPUHot:            0.9,
		CPUCold:           0.3,
		SpillFraction:     0.25,
		StragglerAttempts: 2,
	}
}

// Rule is one custom tuning rule: it inspects a metrics round and returns
// zero or more recommendations. Custom rules run after the built-in set,
// in registration order.
type Rule func(Metrics) []Recommendation

// Tuner evaluates metrics into recommendations.
type Tuner struct {
	Thresholds Thresholds

	rules []Rule
}

// Option configures a Tuner under construction.
type Option func(*Tuner)

// WithThresholds replaces the default thresholds.
func WithThresholds(th Thresholds) Option {
	return func(t *Tuner) { t.Thresholds = th }
}

// WithRule appends a custom rule evaluated after the built-in set.
func WithRule(r Rule) Option {
	return func(t *Tuner) { t.rules = append(t.rules, r) }
}

// New returns a tuner with default thresholds, adjusted by the options.
func New(opts ...Option) *Tuner {
	t := &Tuner{Thresholds: DefaultThresholds()}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Evaluate applies the rule set to the metrics, most impactful rules first.
func (t *Tuner) Evaluate(m Metrics) []Recommendation {
	var recs []Recommendation
	th := t.Thresholds
	b := m.Report.Bottleneck

	// Rule 0: lost nodes endanger data before anything costs performance.
	// A dead datanode or an under-replicated block means the cluster is one
	// more failure away from losing data, so repair outranks every tuning
	// knob (run ReReplicate, or enable the namenode's replication monitor).
	if m.DeadNodes > 0 || m.UnderReplicated > 0 {
		recs = append(recs, Recommendation{
			Action: ActionRepairReplica,
			Reason: fmt.Sprintf("%d node(s) lost and %d block(s) under-replicated: re-replicate onto surviving datanodes before tuning performance", m.DeadNodes, m.UnderReplicated),
		})
	}

	// Rule 1: a network-bound cross-domain cluster should be consolidated
	// onto one physical machine via live migration (the Tuner's headline
	// capability in the paper).
	if m.CrossDomain && b.Kind == "network" && b.MeanUtil >= th.NetworkHot {
		recs = append(recs, Recommendation{
			Action: ActionConsolidate,
			Reason: fmt.Sprintf("cross-domain cluster with %s at %.0f%% utilisation: inter-machine traffic dominates; live-migrate the remote VMs back", b.Resource, b.MeanUtil*100),
		})
	}

	// Rule 2: heavy spilling means io.sort.mb is too small.
	var spill, shuffle float64
	attemptsOver := 0
	for _, js := range m.RecentJobs {
		spill += js.SpillBytes
		shuffle += js.ShuffledBytes
		if over := js.Attempts - js.MapTasks - js.ReduceTasks; over > attemptsOver {
			attemptsOver = over
		}
	}
	if shuffle > 0 && spill/shuffle >= th.SpillFraction {
		recs = append(recs, Recommendation{
			Action: ActionIncreaseSortBuf,
			Reason: fmt.Sprintf("spilled %.0f MB against %.0f MB shuffled: raise io.sort.mb above %.0f MB", spill/1e6, shuffle/1e6, m.MRConfig.SortBufferBytes/1e6),
		})
	}

	// Rule 3: slot sizing against VM CPU.
	var meanCPU float64
	for _, vs := range m.Report.VMs {
		meanCPU += vs.MeanCPU
	}
	if n := len(m.Report.VMs); n > 0 {
		meanCPU /= float64(n)
	}
	switch {
	case meanCPU >= th.CPUHot && m.MRConfig.MapSlots > 1:
		recs = append(recs, Recommendation{
			Action: ActionDecreaseSlots,
			Reason: fmt.Sprintf("worker VCPUs at %.0f%%: %d map slots oversubscribe the single VCPU", meanCPU*100, m.MRConfig.MapSlots),
		})
	case meanCPU > 0 && meanCPU <= th.CPUCold && b.Kind == "cpu":
		recs = append(recs, Recommendation{
			Action: ActionIncreaseSlots,
			Reason: fmt.Sprintf("worker VCPUs at %.0f%% with no hot shared resource: more map slots would raise utilisation", meanCPU*100),
		})
	}

	// Rule 4: stragglers without speculation.
	if attemptsOver >= th.StragglerAttempts && !m.MRConfig.Speculative {
		recs = append(recs, Recommendation{
			Action: ActionEnableSpec,
			Reason: fmt.Sprintf("%d extra task attempts in recent jobs: enable speculative execution", attemptsOver),
		})
	}

	// Rule 5: a disk-bound (NFS) cluster benefits from larger blocks
	// (fewer, longer sequential streams).
	if b.Kind == "disk" && b.MeanUtil >= th.DiskHot {
		recs = append(recs, Recommendation{
			Action: ActionLargerBlocks,
			Reason: fmt.Sprintf("%s at %.0f%%: larger dfs.block.size reduces per-block overhead on the filer", b.Resource, b.MeanUtil*100),
		})
	}

	// Custom rules run last, in registration order.
	for _, rule := range t.rules {
		recs = append(recs, rule(m)...)
	}
	return recs
}

// Apply folds parameter-changing recommendations into a MapReduce config,
// returning the updated copy (migration actions are executed by the caller,
// which owns the platform).
func Apply(cfg mapreduce.Config, recs []Recommendation) mapreduce.Config {
	for _, r := range recs {
		switch r.Action {
		case ActionIncreaseSortBuf:
			cfg.SortBufferBytes *= 2
		case ActionIncreaseSlots:
			cfg.MapSlots++
		case ActionDecreaseSlots:
			if cfg.MapSlots > 1 {
				cfg.MapSlots--
			}
		case ActionEnableSpec:
			cfg.Speculative = true
		}
	}
	return cfg
}
