package nmon

import (
	"flag"
	"fmt"
	"strings"
)

// Name returns the metric's short command-line name, the form ParseMetric
// and the -chart flag accept.
func (m Metric) Name() string {
	switch m {
	case MetricCPU:
		return "cpu"
	case MetricDiskBps:
		return "disk"
	case MetricNetBps:
		return "net"
	}
	return "metric"
}

// ParseMetric maps a user-supplied name to a Metric. It accepts the short
// names ("cpu", "disk", "net", case-insensitively) and the exact long
// descriptions String returns, so a flag round-trips through either form.
func ParseMetric(s string) (Metric, error) {
	all := []Metric{MetricCPU, MetricDiskBps, MetricNetBps}
	for _, m := range all {
		if strings.EqualFold(s, m.Name()) || s == m.String() {
			return m, nil
		}
	}
	names := make([]string, len(all))
	for i, m := range all {
		names[i] = m.Name()
	}
	return 0, fmt.Errorf("nmon: unknown metric %q (want one of %s)", s, strings.Join(names, ", "))
}

// Set implements flag.Value so a *Metric can be registered with flag.Var.
// The CLI parses its -chart list with ParseMetric instead; TestMetricFlagValue
// registers a *Metric with a FlagSet to pin the flag.Value round trip.
func (m *Metric) Set(s string) error {
	parsed, err := ParseMetric(s)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

var _ flag.Value = (*Metric)(nil)
