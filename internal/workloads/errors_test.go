package workloads

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/hdfs"
	"vhadoop/internal/sim"
	"vhadoop/internal/xen"
)

// A second DFSIOSpec.Run on the same platform finds its files already
// written. The write phase's error must reach the caller: the read phase
// that follows would succeed over the first run's files.
func TestDFSIOSpecRerunReturnsWriteError(t *testing.T) {
	pl := platform(t, 4, core.Normal)
	spec := DFSIOSpec{Options: DFSIOOptions{Files: 2, FileBytes: 2e6}}
	var second error
	if _, err := pl.Run(func(p *sim.Proc) error {
		if _, err := spec.Run(p, pl); err != nil {
			return fmt.Errorf("first run: %w", err)
		}
		_, second = spec.Run(p, pl)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(second, hdfs.ErrFileExists) {
		t.Fatalf("second run err = %v, want %v", second, hdfs.ErrFileExists)
	}
}

// WordcountSpec.Stage returns the corpus load's error: with the master VM,
// which uploads it, crashed, staging fails with xen.ErrVMDead.
func TestWordcountStageReturnsLoadError(t *testing.T) {
	pl := platform(t, 4, core.Normal)
	spec := WordcountSpec{Input: "/wc/in", SizeBytes: 8e6, Reduces: 1, RealLines: 8}
	var stageErr error
	if _, err := pl.Run(func(p *sim.Proc) error {
		pl.Master.Crash()
		stageErr = spec.Stage(p, pl)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(stageErr, xen.ErrVMDead) {
		t.Fatalf("Stage err = %v, want %v", stageErr, xen.ErrVMDead)
	}
	if pl.DFS.Exists(spec.Input) {
		t.Fatalf("%s exists after a failed load", spec.Input)
	}
}

// RunTeraSort fails before TeraGen writes anything when its options cannot
// run: fewer than one reduce is a plain error, not a panic in the driver,
// and zero rows fail at the seed file's write.
func TestRunTeraSortRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		modify func(*TeraOptions)
		want   string
	}{
		{"no reduces", func(o *TeraOptions) { o.SortReduces = 0 }, "SortReduces = 0"},
		{"negative reduces", func(o *TeraOptions) { o.SortReduces = -2 }, "SortReduces = -2"},
		{"no rows", func(o *TeraOptions) { o.RealRows = 0 }, "non-positive size"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := platform(t, 4, core.Normal)
			opts := DefaultTeraOptions(8e6)
			tc.modify(&opts)
			var runErr error
			if _, err := pl.Run(func(p *sim.Proc) error {
				_, runErr = RunTeraSort(p, pl, opts)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if runErr == nil || !strings.Contains(runErr.Error(), tc.want) {
				t.Fatalf("RunTeraSort err = %v, want one containing %q", runErr, tc.want)
			}
			if files := pl.DFS.Files(); len(files) != 0 {
				t.Fatalf("DFS holds %v after a rejected run", files)
			}
		})
	}
}
