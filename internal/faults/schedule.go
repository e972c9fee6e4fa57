// Package faults is the deterministic fault-injection subsystem of the
// vHadoop platform. A Schedule is a seeded, serialisable list of faults —
// VM crashes, whole-machine failures, tasktracker hangs, network
// degradation and partitions, NFS filer stalls — pinned to virtual
// timestamps. An Injector arms a schedule against a provisioned platform
// so every fault fires off the simulation clock, which makes chaos runs
// exactly reproducible: same seed, same schedule, same trace.
package faults

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"vhadoop/internal/sim"
)

// Kind names a fault class.
type Kind string

// The fault classes the injector understands.
const (
	// KindVMCrash kills one VM permanently (domU panic / destroy).
	KindVMCrash Kind = "vmcrash"
	// KindMachCrash fails a physical machine and every resident VM
	// (power loss, hypervisor panic). Permanent.
	KindMachCrash Kind = "machcrash"
	// KindHang silences a tasktracker's heartbeats for Duration seconds
	// while the VM stays alive — the classic hung-daemon failure that
	// only a timeout-based failure detector can see.
	KindHang Kind = "hang"
	// KindDegrade multiplies a machine's network links (bridge, guest NIC,
	// storage NIC) by Factor for Duration seconds: a flapping switch port
	// or a saturated uplink.
	KindDegrade Kind = "degrade"
	// KindPartition cuts a machine off the network for Duration seconds
	// (bandwidth floored at 1 B/s so the fluid fabric stays live — in-flight
	// transfers stall rather than vanish, like TCP retries during a real
	// partition).
	KindPartition Kind = "partition"
	// KindNFSStall multiplies the NFS filer's disk service rate by Factor
	// for Duration seconds (RAID rebuild, backup job on the filer).
	KindNFSStall Kind = "nfsstall"
)

// transient reports whether the kind is restored after Duration.
func (k Kind) transient() bool {
	switch k {
	case KindHang, KindDegrade, KindPartition, KindNFSStall:
		return true
	}
	return false
}

// scaled reports whether the kind carries a meaningful Factor.
func (k Kind) scaled() bool { return k == KindDegrade || k == KindNFSStall }

// valid reports whether the kind is one the injector understands.
func (k Kind) valid() bool {
	switch k {
	case KindVMCrash, KindMachCrash, KindHang, KindDegrade, KindPartition, KindNFSStall:
		return true
	}
	return false
}

// Fault is one scheduled fault.
type Fault struct {
	At       sim.Time // virtual time the fault fires
	Kind     Kind
	Target   string   // VM name, machine name, or the filer's machine name
	Duration sim.Time // transient kinds only; 0 for permanent kinds
	Factor   float64  // degrade/nfsstall only: multiplier in (0,1]; 0 otherwise
}

// Validate checks one fault's internal consistency (target existence is the
// Injector's job, since only it knows the platform).
func (f Fault) Validate() error {
	if !f.Kind.valid() {
		return fmt.Errorf("faults: unknown kind %q", string(f.Kind))
	}
	if math.IsNaN(f.At) || math.IsInf(f.At, 0) || f.At < 0 {
		return fmt.Errorf("faults: %s %s: bad time %v", f.Kind, f.Target, f.At)
	}
	if f.Target == "" || strings.ContainsAny(f.Target, " \t\n\r#") {
		return fmt.Errorf("faults: %s: bad target %q", f.Kind, f.Target)
	}
	if math.IsNaN(f.Duration) || math.IsInf(f.Duration, 0) {
		return fmt.Errorf("faults: %s %s: bad duration %v", f.Kind, f.Target, f.Duration)
	}
	if f.Kind.transient() {
		if f.Duration <= 0 {
			return fmt.Errorf("faults: %s %s: transient fault needs positive duration, got %v", f.Kind, f.Target, f.Duration)
		}
	} else if f.Duration != 0 {
		return fmt.Errorf("faults: %s %s: permanent fault cannot carry duration %v", f.Kind, f.Target, f.Duration)
	}
	if f.Kind.scaled() {
		if math.IsNaN(f.Factor) || f.Factor <= 0 || f.Factor > 1 {
			return fmt.Errorf("faults: %s %s: factor %v outside (0,1]", f.Kind, f.Target, f.Factor)
		}
	} else if f.Factor != 0 {
		return fmt.Errorf("faults: %s %s: kind carries no factor, got %v", f.Kind, f.Target, f.Factor)
	}
	return nil
}

// Schedule is an ordered list of faults. Order in the file is preserved;
// the injector arms each fault at its own timestamp, so the simulation
// clock, not slice position, decides firing order.
type Schedule struct {
	Faults []Fault
}

// Validate checks every fault.
func (s Schedule) Validate() error {
	for i, f := range s.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// header identifies the schedule wire format.
const header = "vhfaults v1"

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// Encode writes the schedule in its canonical text form: a header line,
// then one `at kind target duration factor` line per fault. Floats use
// the shortest representation that parses back exactly, so
// Decode(Encode(s)) == s for any valid schedule.
func Encode(w io.Writer, s Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, f := range s.Faults {
		_, err := fmt.Fprintf(w, "%s %s %s %s %s\n",
			ftoa(f.At), string(f.Kind), f.Target, ftoa(f.Duration), ftoa(f.Factor))
		if err != nil {
			return err
		}
	}
	return nil
}

// EncodeString is Encode into a string.
func EncodeString(s Schedule) string {
	var b strings.Builder
	if err := Encode(&b, s); err != nil {
		panic(err) // strings.Builder cannot fail; only invalid schedules do
	}
	return b.String()
}

// Decode parses a schedule. Blank lines and `#` comments are skipped;
// everything else is validated strictly, so any successfully decoded
// schedule re-encodes canonically. No production path reads a schedule
// file: TestFaultedRunTraceDeterministic's round trip and FuzzFaultSchedule
// call it, and the planned FuzzChaos fuzzer will decode its inputs with it.
func Decode(r io.Reader) (Schedule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var s Schedule
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if !sawHeader {
			if text != header {
				return Schedule{}, fmt.Errorf("faults: line %d: bad header %q, want %q", line, text, header)
			}
			sawHeader = true
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 5 {
			return Schedule{}, fmt.Errorf("faults: line %d: want 5 fields, got %d", line, len(fields))
		}
		at, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return Schedule{}, fmt.Errorf("faults: line %d: at: %v", line, err)
		}
		dur, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return Schedule{}, fmt.Errorf("faults: line %d: duration: %v", line, err)
		}
		factor, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return Schedule{}, fmt.Errorf("faults: line %d: factor: %v", line, err)
		}
		f := Fault{At: at, Kind: Kind(fields[1]), Target: fields[2], Duration: dur, Factor: factor}
		if err := f.Validate(); err != nil {
			return Schedule{}, fmt.Errorf("faults: line %d: %w", line, err)
		}
		s.Faults = append(s.Faults, f)
	}
	if err := sc.Err(); err != nil {
		return Schedule{}, fmt.Errorf("faults: %w", err)
	}
	if !sawHeader {
		return Schedule{}, fmt.Errorf("faults: missing %q header", header)
	}
	return s, nil
}

// GenOptions parameterises Generate.
type GenOptions struct {
	N       int      // faults to draw
	Horizon sim.Time // faults fire in [0.05, 0.95) of the horizon
	// Target pools. A kind with an empty pool is never drawn.
	VMs      []string // vmcrash and hang targets
	Machines []string // machcrash, degrade and partition targets
	Filer    string   // nfsstall target; "" disables nfsstall
	// Kinds restricts generation to a subset; empty means every kind
	// whose target pool is populated.
	Kinds []Kind
}

// Generate draws a random schedule from rng: deterministic for a given
// seed and options, so chaos runs can regenerate their schedule from a
// single integer. Faults come out sorted by time.
func Generate(rng *rand.Rand, opts GenOptions) Schedule {
	kinds := opts.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{KindVMCrash, KindMachCrash, KindHang, KindDegrade, KindPartition, KindNFSStall}
	}
	var usable []Kind
	for _, k := range kinds {
		switch k {
		case KindVMCrash, KindHang:
			if len(opts.VMs) > 0 {
				usable = append(usable, k)
			}
		case KindMachCrash, KindDegrade, KindPartition:
			if len(opts.Machines) > 0 {
				usable = append(usable, k)
			}
		case KindNFSStall:
			if opts.Filer != "" {
				usable = append(usable, k)
			}
		}
	}
	var s Schedule
	if len(usable) == 0 || opts.N <= 0 || opts.Horizon <= 0 {
		return s
	}
	for i := 0; i < opts.N; i++ {
		k := usable[rng.Intn(len(usable))]
		f := Fault{
			Kind: k,
			At:   (0.05 + 0.9*rng.Float64()) * opts.Horizon,
		}
		switch k {
		case KindVMCrash, KindHang:
			f.Target = opts.VMs[rng.Intn(len(opts.VMs))]
		case KindMachCrash, KindDegrade, KindPartition:
			f.Target = opts.Machines[rng.Intn(len(opts.Machines))]
		case KindNFSStall:
			f.Target = opts.Filer
		}
		if k.transient() {
			f.Duration = (0.05 + 0.25*rng.Float64()) * opts.Horizon
		}
		if k.scaled() {
			f.Factor = 0.05 + 0.45*rng.Float64()
		}
		s.Faults = append(s.Faults, f)
	}
	// Insertion sort by (At, Kind, Target): stable, deterministic, and
	// keeps the generated file human-scannable.
	for i := 1; i < len(s.Faults); i++ {
		for j := i; j > 0 && less(s.Faults[j], s.Faults[j-1]); j-- {
			s.Faults[j], s.Faults[j-1] = s.Faults[j-1], s.Faults[j]
		}
	}
	return s
}

func less(a, b Fault) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Target < b.Target
}
