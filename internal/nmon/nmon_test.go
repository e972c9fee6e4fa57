package nmon_test

import (
	"encoding/csv"
	"encoding/xml"
	"strconv"
	"strings"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/nmon"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// monitoredRun executes a wordcount with a monitor attached.
func monitoredRun(t *testing.T) (*core.Platform, *nmon.Monitor) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Nodes = 8
	pl := core.MustNewPlatform(opts)
	mon := nmon.New(pl.Engine, pl.Obs)
	for _, vm := range pl.VMs {
		mon.Watch(vm)
	}
	for _, pm := range pl.PMs {
		mon.WatchMachine(pm)
	}
	mon.WatchDisk(pl.Filer.Disk)
	mon.WatchLink(pl.Filer.NICTx)
	mon.WatchLink(pl.Filer.NICRx)
	mon.Start()
	_, err := pl.Run(func(p *sim.Proc) error {
		defer mon.Stop()
		_, err := workloads.RunWordcount(p, pl, "/wc", 512e6, 2, true)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return pl, mon
}

func TestMonitorCollectsSamples(t *testing.T) {
	pl, mon := monitoredRun(t)
	var sb strings.Builder
	if err := mon.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(sb.String()))
	r.Comment = '#' // annotation lines
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]int{}
	// Some worker must show CPU and network activity in some interval.
	var sawCPU, sawNet bool
	for _, row := range rows[1:] { // vm,t,cpu,disk_read_bps,disk_write_bps,net_tx_bps,net_rx_bps
		if row[0] == pl.Master.Name {
			continue
		}
		samples[row[0]]++
		var v [7]float64
		for i := 1; i < len(row); i++ {
			if v[i], err = strconv.ParseFloat(row[i], 64); err != nil {
				t.Fatalf("row %v: %v", row, err)
			}
		}
		if v[2] > 0.05 {
			sawCPU = true
		}
		if v[5]+v[6] > 1e6 {
			sawNet = true
		}
		if v[2] < 0 || v[2] > 1 {
			t.Fatalf("CPU sample out of range: %v", v[2])
		}
	}
	for _, vm := range pl.VMs[1:] {
		if samples[vm.Name] < 5 {
			t.Fatalf("worker series too short for %s", vm.Name)
		}
	}
	if !sawCPU || !sawNet {
		t.Fatalf("no activity observed: cpu=%v net=%v", sawCPU, sawNet)
	}
}

func TestAnalyzeFindsIOBottleneck(t *testing.T) {
	_, mon := monitoredRun(t)
	rep := mon.Analyze()
	// Wordcount over NFS-backed disks on a 1 Gb/s LAN: the bottleneck must
	// be a shared network link or the filer disk — never VM CPU (the
	// paper's conclusion (i)).
	if rep.Bottleneck.Kind == "cpu" {
		t.Fatalf("bottleneck = %+v, expected network or disk", rep.Bottleneck)
	}
	if rep.Bottleneck.MeanUtil <= 0.2 {
		t.Fatalf("bottleneck utilisation suspiciously low: %+v", rep.Bottleneck)
	}
	if len(rep.VMs) != 8 {
		t.Fatalf("VM summaries = %d", len(rep.VMs))
	}
}

func TestSummarizeValues(t *testing.T) {
	pl, mon := monitoredRun(t)
	var sum nmon.VMSummary
	for _, s := range mon.Analyze().VMs {
		if s.VM == pl.VMs[1].Name {
			sum = s
		}
	}
	if sum.Samples == 0 || sum.MeanCPU < 0 || sum.PeakCPU < sum.MeanCPU {
		t.Fatalf("bad summary: %+v", sum)
	}
}

func TestWriteCSV(t *testing.T) {
	_, mon := monitoredRun(t)
	var sb strings.Builder
	if err := mon.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "vm,t,cpu,") {
		t.Fatalf("missing header: %.60s", out)
	}
	if strings.Count(out, "\n") < 10 {
		t.Fatalf("too few CSV rows:\n%s", out)
	}
	if !strings.Contains(out, "vm01,") {
		t.Fatal("worker vm01 missing from CSV")
	}
}

func TestRenderSVGChart(t *testing.T) {
	_, mon := monitoredRun(t)
	for _, metric := range []nmon.Metric{nmon.MetricCPU, nmon.MetricDiskBps, nmon.MetricNetBps} {
		svg := mon.RenderSVG(metric, nmon.ChartOptions{Title: `run <1&"2">`})
		if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
			t.Fatalf("%v: not a complete SVG", metric)
		}
		if !strings.Contains(svg, ">run &lt;1&amp;&#34;2&#34;&gt;</text>") {
			t.Fatalf("%v: title not XML-escaped", metric)
		}
		if !strings.Contains(svg, "<polyline") {
			t.Fatalf("%v: no series rendered", metric)
		}
		if !strings.Contains(svg, "vm01") {
			t.Fatalf("%v: legend missing VM names", metric)
		}
		dec := xml.NewDecoder(strings.NewReader(svg))
		for {
			_, err := dec.Token()
			if err != nil {
				if err.Error() == "EOF" {
					break
				}
				t.Fatalf("%v: SVG not well-formed: %v", metric, err)
			}
		}
	}
}
