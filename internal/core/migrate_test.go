package core_test

import (
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/sim"
	"vhadoop/internal/virtlm"
)

func TestMigrateWorkersMovesEverything(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Nodes = 4
	pl := core.MustNewPlatform(opts)
	_, err := pl.Run(func(p *sim.Proc) error {
		res, err := virtlm.MigrateCluster(p, pl, "all", pl.PMs[0], pl.PMs[1])
		if err != nil {
			return err
		}
		if len(res.PerVM) != 4 {
			t.Errorf("migrated %d VMs, want 4", len(res.PerVM))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range pl.VMs {
		if vm.Host() != pl.PMs[1] {
			t.Fatalf("%s still on %s", vm.Name, vm.Host().Name)
		}
	}
}
