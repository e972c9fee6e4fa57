package vhadoop_test

import (
	"fmt"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// TestODirectRelayReadPinned pins the O_DIRECT relay read at platform
// scale, the cache-off case of BenchmarkAblationHostCache: 16 nodes, normal
// layout, seed 1, DFSIO 8 x 128 MB written and then read without the dom0
// page cache. Every block read then streams from the filer through the
// replica holder's dom0 (xen.VM.SpawnRelay, nfs.Server.Relay for a
// reader on another VM), which no golden, chaos run or vhbench workload
// takes. The figure was recorded before the relay moved onto the filer's
// one streaming path; a change that moves it changes the simulation.
func TestODirectRelayReadPinned(t *testing.T) {
	const want = "118.993355"
	opts := platformOpts(16, core.Normal, 1)
	opts.HDFS.UseHostCache = false
	pl := core.MustNewPlatform(opts)
	o := workloads.DFSIOOptions{Files: 8, FileBytes: 128e6}
	var r workloads.DFSIOResult
	var filerRead float64
	if _, err := pl.Run(func(p *sim.Proc) error {
		if _, err := workloads.RunDFSIOWrite(p, pl, o); err != nil {
			return err
		}
		before := pl.NFS.ReadBytes()
		var err error
		r, err = workloads.RunDFSIORead(p, pl, o)
		filerRead = pl.NFS.ReadBytes() - before
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if total := float64(o.Files) * o.FileBytes; filerRead < total {
		t.Fatalf("filer served %.0f bytes of a %.0f-byte read: a cache answered", filerRead, total)
	}
	if got := fmt.Sprintf("%.9g", r.ThroughputMBps); got != want {
		t.Fatalf("cache-off DFSIO read = %s MB/s, want %s", got, want)
	}
}
