package mapreduce_test

import (
	"testing"

	"vhadoop/internal/core"
)

// TestIdleDaemonsOwnNoProcess gates the cluster's background daemons: the
// tracker heartbeats and the jobtracker's failure detector never block, so
// they run as timer chains. A started, idle platform has no live process,
// and 20 heartbeat intervals of it allocate nothing.
func TestIdleDaemonsOwnNoProcess(t *testing.T) {
	pl := core.MustNewPlatform(core.DefaultOptions())
	hb := pl.Opts.MR.HeartbeatInterval
	pl.MR.Start()
	pl.Engine.RunUntil(hb) // the first round of every chain has run
	if n := pl.Engine.LiveProcs(); n != 0 {
		t.Fatalf("idle started platform has %d live processes, want 0", n)
	}
	if n := testing.AllocsPerRun(5, func() { pl.Engine.RunUntil(pl.Engine.Now() + 20*hb) }); n != 0 {
		t.Fatalf("20 idle heartbeat intervals: %v allocs, want 0", n)
	}
	pl.MR.Stop()
	pl.Engine.Run()
}
