package faults

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/obs"
	"vhadoop/internal/sim"
	"vhadoop/internal/xen"
)

func sampleSchedule() Schedule {
	return Schedule{Faults: []Fault{
		{At: 1.5, Kind: KindDegrade, Target: "pm2", Duration: 2, Factor: 0.5},
		{At: 10, Kind: KindPartition, Target: "pm2", Duration: 5},
		{At: 20.25, Kind: KindNFSStall, Target: "filer", Duration: 5, Factor: 0.5},
		{At: 30, Kind: KindHang, Target: "vm01", Duration: 40},
		{At: 50, Kind: KindVMCrash, Target: "vm03"},
		{At: 60, Kind: KindMachCrash, Target: "pm2"},
	}}
}

func TestScheduleRoundTrip(t *testing.T) {
	s := sampleSchedule()
	// Add awkward-but-exact floats: the codec must round-trip every float64.
	s.Faults = append(s.Faults, Fault{
		At: 1.0 / 3.0, Kind: KindDegrade, Target: "pm1",
		Duration: math.Nextafter(2, 3), Factor: 0.1 + 0.2,
	})
	enc := EncodeString(s)
	got, err := Decode(strings.NewReader(enc))
	if err != nil {
		t.Fatalf("Decode(Encode(s)): %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip changed schedule:\n got %+v\nwant %+v", got, s)
	}
	if re := EncodeString(got); re != enc {
		t.Fatalf("re-encode not canonical:\n got %q\nwant %q", re, enc)
	}
}

func TestDecodeSkipsCommentsAndBlanks(t *testing.T) {
	text := "# chaos run 7\n\nvhfaults v1\n\n# mid-run partition\n10 partition pm2 5 0\n"
	s, err := Decode(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	want := Schedule{Faults: []Fault{{At: 10, Kind: KindPartition, Target: "pm2", Duration: 5}}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("got %+v, want %+v", s, want)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct{ name, text string }{
		{"empty", ""},
		{"no header", "10 vmcrash vm01 0 0\n"},
		{"bad header", "vhfaults v2\n"},
		{"short line", "vhfaults v1\n10 vmcrash vm01\n"},
		{"long line", "vhfaults v1\n10 vmcrash vm01 0 0 extra\n"},
		{"bad float", "vhfaults v1\nten vmcrash vm01 0 0\n"},
		{"negative time", "vhfaults v1\n-1 vmcrash vm01 0 0\n"},
		{"nan time", "vhfaults v1\nNaN vmcrash vm01 0 0\n"},
		{"inf duration", "vhfaults v1\n1 hang vm01 +Inf 0\n"},
		{"unknown kind", "vhfaults v1\n1 meteor pm1 0 0\n"},
		{"permanent with duration", "vhfaults v1\n1 vmcrash vm01 5 0\n"},
		{"transient without duration", "vhfaults v1\n1 hang vm01 0 0\n"},
		{"factor on crash", "vhfaults v1\n1 vmcrash vm01 0 0.5\n"},
		{"degrade factor zero", "vhfaults v1\n1 degrade pm1 5 0\n"},
		{"degrade factor above one", "vhfaults v1\n1 degrade pm1 5 1.5\n"},
		{"partition with factor", "vhfaults v1\n1 partition pm1 5 0.5\n"},
	}
	for _, tc := range cases {
		if _, err := Decode(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: Decode accepted %q", tc.name, tc.text)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	s := Schedule{Faults: []Fault{{At: -1, Kind: KindVMCrash, Target: "vm01"}}}
	var b strings.Builder
	if err := Encode(&b, s); err == nil {
		t.Fatal("Encode accepted a negative fault time")
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	opts := GenOptions{
		N: 25, Horizon: 600,
		VMs:      []string{"vm01", "vm02", "vm03"},
		Machines: []string{"pm1", "pm2"},
		Filer:    "filer",
	}
	a := Generate(rand.New(rand.NewSource(42)), opts)
	b := Generate(rand.New(rand.NewSource(42)), opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a.Faults) != opts.N {
		t.Fatalf("got %d faults, want %d", len(a.Faults), opts.N)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	for i := 1; i < len(a.Faults); i++ {
		if a.Faults[i].At < a.Faults[i-1].At {
			t.Fatalf("faults not time-sorted at %d", i)
		}
	}
	c := Generate(rand.New(rand.NewSource(43)), opts)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateRespectsTargetPools(t *testing.T) {
	// Only machine targets: no vmcrash/hang/nfsstall may appear.
	s := Generate(rand.New(rand.NewSource(7)), GenOptions{
		N: 40, Horizon: 100, Machines: []string{"pm1"},
	})
	for _, f := range s.Faults {
		switch f.Kind {
		case KindMachCrash, KindDegrade, KindPartition:
		default:
			t.Fatalf("kind %s drawn with no targets for it", f.Kind)
		}
	}
	if len(Generate(rand.New(rand.NewSource(7)), GenOptions{N: 10, Horizon: 100}).Faults) != 0 {
		t.Fatal("empty target pools should generate an empty schedule")
	}
}

func testPlatform(t *testing.T) *core.Platform {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Nodes = 4
	opts.Layout = core.CrossDomain
	return core.MustNewPlatform(opts)
}

func TestInjectorEndToEnd(t *testing.T) {
	pl := testPlatform(t)
	inj := NewInjector(pl)
	if err := inj.Install(sampleSchedule()); err != nil {
		t.Fatalf("Install: %v", err)
	}

	pm2 := pl.PMs[1]
	nicBW := pm2.NICTx.Bandwidth()
	diskCap := pl.NFS.Disk().Capacity()
	type probe struct {
		at       sim.Time
		nic      float64
		filer    float64
		vm03Dead bool
		pm2Fail  bool
	}
	var probes []probe
	_, err := pl.Run(func(p *sim.Proc) error {
		for _, at := range []sim.Time{2.5, 4, 12, 16, 22, 26, 55, 65} {
			p.Sleep(at - p.Now())
			probes = append(probes, probe{
				at:       at,
				nic:      pm2.NICTx.Bandwidth(),
				filer:    pl.NFS.Disk().Capacity(),
				vm03Dead: pl.VMs[3].State() == xen.StateCrashed,
				pm2Fail:  pm2.Failed(),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	want := []struct {
		nic, filer float64
	}{
		{nicBW * 0.5, diskCap}, // 2.5: degrade pm2 active
		{nicBW, diskCap},       // 4: degrade restored exactly
		{1, diskCap},           // 12: partition floor
		{nicBW, diskCap},       // 16: partition restored
		{nicBW, diskCap * 0.5}, // 22: filer stalled
		{nicBW, diskCap},       // 26: filer restored
		{nicBW, diskCap},       // 55: after vmcrash
		{nicBW, diskCap},       // 65: after machcrash
	}
	for i, pr := range probes {
		if pr.nic != want[i].nic {
			t.Errorf("t=%.1f: pm2 NIC bandwidth = %g, want %g", pr.at, pr.nic, want[i].nic)
		}
		if pr.filer != want[i].filer {
			t.Errorf("t=%.1f: filer disk capacity = %g, want %g", pr.at, pr.filer, want[i].filer)
		}
	}
	if !probes[6].vm03Dead {
		t.Error("vm03 still alive after vmcrash fault")
	}
	if probes[6].pm2Fail {
		t.Error("pm2 failed before its machcrash fault")
	}
	if !probes[7].pm2Fail {
		t.Error("pm2 not failed after machcrash fault")
	}
	if st := pl.VMs[2].State(); st != xen.StateCrashed {
		t.Errorf("vm02 (resident on pm2) state = %v after machcrash, want crashed", st)
	}

	var notes []obs.Event
	for _, ev := range pl.Obs.Tracer().Export().Events {
		if ev.Kind == obs.KindFault {
			notes = append(notes, ev)
		}
	}
	// 6 faults, 3 of them transient with a restore note each, and the hang
	// has no restore (the tracker just resumes heartbeating): 6 + 3 = 9.
	if len(notes) != 9 {
		t.Fatalf("got %d fault notes in the trace, want 9: %+v", len(notes), notes)
	}
	wantSubstr := []string{"degrade pm2", "degrade pm2 restored", "partition pm2",
		"partition pm2 restored", "nfsstall filer", "nfsstall filer restored",
		"hang vm01", "vmcrash vm03", "machcrash pm2"}
	for i, ev := range notes {
		if i > 0 && ev.T < notes[i-1].T {
			t.Fatalf("notes out of order at %d", i)
		}
		if !strings.Contains(ev.Msg, wantSubstr[i]) {
			t.Errorf("fault note %d = %q, want it to contain %q", i, ev.Msg, wantSubstr[i])
		}
	}
}

func TestInjectorRejectsUnknownTargets(t *testing.T) {
	pl := testPlatform(t)
	inj := NewInjector(pl)
	cases := []Schedule{
		{Faults: []Fault{{At: 1, Kind: KindVMCrash, Target: "vm99"}}},
		{Faults: []Fault{{At: 1, Kind: KindHang, Target: "vm00", Duration: 5}}}, // master has no tracker
		{Faults: []Fault{{At: 1, Kind: KindMachCrash, Target: "pm9"}}},
		{Faults: []Fault{{At: 1, Kind: KindDegrade, Target: "pm9", Duration: 5, Factor: 0.5}}},
		{Faults: []Fault{{At: 1, Kind: KindNFSStall, Target: "pm1", Duration: 5, Factor: 0.5}}},
		{Faults: []Fault{{At: -1, Kind: KindVMCrash, Target: "vm01"}}}, // invalid fault
	}
	for i, s := range cases {
		if err := inj.Install(s); err == nil {
			t.Errorf("case %d: Install accepted %+v", i, s.Faults[0])
		}
	}
	// A rejected schedule must not arm anything: the engine should drain
	// immediately with no fault events pending.
	if end := pl.Engine.Run(); end != 0 {
		t.Fatalf("rejected schedules left events armed: engine ran to %v", end)
	}
}

func TestOverlappingFaultsComposeByMinimum(t *testing.T) {
	pl := testPlatform(t)
	inj := NewInjector(pl)
	s := Schedule{Faults: []Fault{
		{At: 1, Kind: KindDegrade, Target: "pm1", Duration: 10, Factor: 0.5},
		{At: 3, Kind: KindDegrade, Target: "pm1", Duration: 4, Factor: 0.25},
	}}
	if err := inj.Install(s); err != nil {
		t.Fatalf("Install: %v", err)
	}
	pm1 := pl.PMs[0]
	orig := pm1.NICTx.Bandwidth()
	var mid, after, restored float64
	pl.Engine.At(5, func() { mid = pm1.NICTx.Bandwidth() })
	pl.Engine.At(8, func() { after = pm1.NICTx.Bandwidth() })
	pl.Engine.At(12, func() { restored = pm1.NICTx.Bandwidth() })
	pl.Engine.Run()
	if mid != orig*0.25 {
		t.Errorf("overlap window: bandwidth = %g, want %g (min factor)", mid, orig*0.25)
	}
	if after != orig*0.5 {
		t.Errorf("after inner restore: bandwidth = %g, want %g", after, orig*0.5)
	}
	if restored != orig {
		t.Errorf("after outer restore: bandwidth = %g, want %g", restored, orig)
	}
}
