package xen

import (
	"errors"
	"fmt"
	"strconv"

	"vhadoop/internal/obs"
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
)

// ErrMigrationAborted reports a live migration abandoned because the
// destination machine failed mid-flight. The guest keeps running (or resumes)
// on the source; the caller may retry toward another target.
var ErrMigrationAborted = errors.New("xen: migration aborted, destination failed")

// The pre-copy algorithm's calibration, from Xen 3.4's defaults.
const (
	// maxRounds bounds the number of iterative pre-copy rounds before the
	// algorithm gives up converging and stops the VM.
	maxRounds int = 8
	// stopThresholdBytes ends pre-copy early once the dirty set is this
	// small: the remainder moves during stop-and-copy.
	stopThresholdBytes float64 = 1e6
	// cpuStateBytes is the fixed VCPU/device state moved during downtime.
	cpuStateBytes float64 = 2e5
	// wwsTime models the writable working set: the hottest pages are
	// re-dirtied so fast that roughly wwsTime seconds worth of dirtying can
	// never be pre-copied away and must move during stop-and-copy. This is
	// what makes a loaded VM's downtime an order of magnitude larger than an
	// idle one's while its total migration time grows only moderately.
	wwsTime sim.Time = 1.0
)

// MigrationConfig holds the live-migration cost a caller may vary.
type MigrationConfig struct {
	// ActivationOverhead is the fixed cost of re-activating the guest on the
	// destination (ARP announcements, device reattach).
	ActivationOverhead sim.Time
}

// DefaultMigrationConfig mirrors Xen 3.4's activation overhead.
func DefaultMigrationConfig() MigrationConfig {
	return MigrationConfig{ActivationOverhead: 0.050}
}

// MigrationStats records one VM's live migration, the quantities the paper's
// Virt-LM benchmark measures.
type MigrationStats struct {
	VM        string
	From, To  string
	Start     sim.Time
	Total     sim.Time // wall-clock migration time
	Downtime  sim.Time // stop-and-copy service interruption
	Rounds    int      // pre-copy rounds (excluding stop-and-copy)
	BytesSent float64  // total bytes moved, all rounds
}

func (s MigrationStats) String() string {
	return fmt.Sprintf("%s %s->%s total=%.2fs downtime=%.0fms rounds=%d sent=%.0fMB",
		s.VM, s.From, s.To, s.Total, s.Downtime*1e3, s.Rounds, s.BytesSent/1e6)
}

// Migrate live-migrates vm to dst with the pre-copy algorithm: round 0
// pushes all memory while the guest keeps running; each later round pushes
// the pages dirtied during the previous round; when the dirty set is small
// enough (or maxRounds is hit, or a round stops making progress) the guest
// pauses, the final set plus CPU state moves, and the guest resumes on dst.
//
// Migration traffic flows dom0-to-dom0 and therefore contends with the
// cluster's own workload traffic on the NICs — a busy Hadoop VM both dirties
// pages faster and leaves less bandwidth for migration, which is why the
// paper measures ~3x migration time and ~13x downtime for a Wordcount-loaded
// cluster versus an idle one.
func (m *Manager) Migrate(p *sim.Proc, vm *VM, dst *phys.Machine, cfg MigrationConfig) (MigrationStats, error) {
	stats := MigrationStats{VM: vm.Name, From: vm.host.Name, To: dst.Name, Start: m.engine.Now()}
	if vm.state == StateCrashed {
		return stats, fmt.Errorf("xen: migrate %s: %w", vm.Name, ErrVMDead)
	}
	if dst == vm.host {
		return stats, fmt.Errorf("xen: migrate %s: already on %s", vm.Name, dst.Name)
	}
	if err := dst.ReserveMem(vm.MemBytes); err != nil {
		return stats, fmt.Errorf("xen: migrate %s: %w", vm.Name, err)
	}

	src := vm.host
	fabric := m.topo.Fabric()
	route := m.topo.HostPath(src, dst)

	sp := m.obs.Start(obs.KindMigration, vm.Name, nil).
		SetAttr("from", stats.From).SetAttr("to", stats.To)

	// abort undoes the destination reservation and reports why the
	// migration cannot complete. The guest is left untouched on the source:
	// pre-copy rounds never pause it, so there is nothing to resume.
	abort := func(cause error) (MigrationStats, error) {
		dst.ReleaseMem(vm.MemBytes)
		stats.Total = m.engine.Now() - stats.Start
		if m.instr != nil {
			m.instr.aborts.Inc()
		}
		sp.Eventf("migration aborted %s %s->%s after %d rounds: %v",
			vm.Name, stats.From, stats.To, stats.Rounds, cause)
		sp.SetAttr("error", cause.Error()).Finish()
		return stats, fmt.Errorf("xen: migrate %s: %w", vm.Name, cause)
	}

	// Iterative pre-copy.
	toSend := vm.MemBytes
	for {
		before := m.engine.Now()
		fabric.Transfer(p, "pre-copy", route, toSend)
		stats.BytesSent += toSend
		stats.Rounds++
		if vm.state == StateCrashed || vm.state == StateShutdown {
			// The guest died mid-round; its memory image is worthless.
			return abort(ErrVMDead)
		}
		if dst.Failed() {
			return abort(ErrMigrationAborted)
		}
		elapsed := m.engine.Now() - before
		dirtied := vm.DirtyRate() * elapsed
		if wws := vm.DirtyRate() * wwsTime; dirtied < wws {
			dirtied = wws // hot pages re-dirty faster than they copy
		}
		if dirtied > vm.MemBytes {
			dirtied = vm.MemBytes
		}
		if dirtied <= stopThresholdBytes || stats.Rounds >= maxRounds || dirtied >= toSend {
			toSend = dirtied
			break
		}
		toSend = dirtied
	}

	// Stop-and-copy: the guest is paused; the final dirty set and CPU state
	// move; the guest re-activates on the destination.
	downStart := m.engine.Now()
	vm.pause()
	fabric.Transfer(p, "stop-and-copy", route, toSend+cpuStateBytes)
	stats.BytesSent += toSend + cpuStateBytes
	if vm.state == StateCrashed || vm.state == StateShutdown {
		// Crashed while paused: do not resurrect it by resuming.
		return abort(ErrVMDead)
	}
	if dst.Failed() {
		// Destination died during downtime: the source still holds the
		// authoritative image, so resume there and report the abort.
		vm.resume()
		return abort(ErrMigrationAborted)
	}
	p.Sleep(cfg.ActivationOverhead)
	vm.host = dst
	src.ReleaseMem(vm.MemBytes)
	vm.resume()

	stats.Downtime = m.engine.Now() - downStart
	stats.Total = m.engine.Now() - stats.Start
	if m.instr != nil {
		m.instr.migrations.Inc()
		m.instr.downtime.Observe(float64(stats.Downtime))
	}
	sp.Eventf("migrated %s", stats)
	sp.SetFloat("downtime", float64(stats.Downtime)).
		SetFloat("bytes", stats.BytesSent).
		SetAttr("rounds", strconv.Itoa(stats.Rounds)).
		Finish()
	return stats, nil
}
