package xen

import (
	"vhadoop/internal/obs"
)

// downtimeBuckets are the histogram bounds for migration downtime in
// seconds: idle VMs land in the low-millisecond buckets, loaded ones an
// order of magnitude higher (the paper's Virt-LM spread).
var downtimeBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2, 5}

// instruments caches the manager's metric handles; nil without a plane.
type instruments struct {
	migrations     *obs.Counter
	aborts         *obs.Counter
	downtime       *obs.Histogram
	vmCrashes      *obs.Counter
	machineCrashes *obs.Counter
}

// SetObs attaches the observability plane: live migrations get spans
// with downtime/rounds/bytes attributes, crashes become typed events,
// and the registry gains the xen_* metric family.
func (m *Manager) SetObs(pl *obs.Plane) {
	m.obs = pl
	if pl == nil {
		m.instr = nil
		return
	}
	m.instr = &instruments{
		migrations:     pl.Counter("xen_migrations_total"),
		aborts:         pl.Counter("xen_migration_aborts_total"),
		downtime:       pl.Histogram("xen_migration_downtime_seconds", downtimeBuckets),
		vmCrashes:      pl.Counter("xen_vm_crashes_total"),
		machineCrashes: pl.Counter("xen_machine_crashes_total"),
	}
}
