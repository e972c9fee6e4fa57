package datasets

import (
	"math"
	"math/rand"
	"strings"

	"vhadoop/internal/hdfs"
)

// ControlClass is one of the six control-chart pattern classes.
type ControlClass int

// The six classes of the Synthetic Control Chart Time Series data set.
const (
	ControlNormal ControlClass = iota
	ControlCyclic
	ControlIncreasing
	ControlDecreasing
	ControlUpShift
	ControlDownShift
)

var controlClassNames = [...]string{
	"normal", "cyclic", "increasing", "decreasing", "upshift", "downshift",
}

func (c ControlClass) String() string { return controlClassNames[c] }

// ControlSeries is one synthetic control chart: a 60-point time series plus
// its generating class.
type ControlSeries struct {
	Class  ControlClass
	Points []float64
}

// ControlChartOptions sizes the data set. The UCI original has 100 series
// per class and 60 points per series.
type ControlChartOptions struct {
	PerClass int
	Length   int
}

// DefaultControlChartOptions reproduces the UCI data set dimensions
// (600 series of 60 points).
func DefaultControlChartOptions() ControlChartOptions {
	return ControlChartOptions{PerClass: 100, Length: 60}
}

// ControlChart regenerates the Synthetic Control Chart Time Series data set
// from the Alcock & Manolopoulos (1999) process: baseline m=30 with noise
// amplitude s=2, plus a class-specific component — a sine for cyclic series,
// a linear drift for trends, and a step for shifts.
func ControlChart(rng *rand.Rand, opts ControlChartOptions) []ControlSeries {
	const (
		m = 30.0
		s = 2.0
	)
	out := make([]ControlSeries, 0, opts.PerClass*6)
	for class := ControlNormal; class <= ControlDownShift; class++ {
		for i := 0; i < opts.PerClass; i++ {
			pts := make([]float64, opts.Length)
			// Class-specific parameters drawn per series.
			a := 10 + 5*rng.Float64()     // cycle amplitude in (10,15)
			T := 10 + 5*rng.Float64()     // cycle period in (10,15)
			g := 0.2 + 0.3*rng.Float64()  // gradient in (0.2,0.5)
			k := 7.5 + 12.5*rng.Float64() // shift magnitude in (7.5,20)
			t3 := float64(opts.Length)/3 + rng.Float64()*float64(opts.Length)/3
			for t := range pts {
				r := -3 + 6*rng.Float64() // noise in (-3,3)
				y := m + r*s
				ft := float64(t)
				switch class {
				case ControlCyclic:
					y += a * math.Sin(2*math.Pi*ft/T)
				case ControlIncreasing:
					y += g * ft
				case ControlDecreasing:
					y -= g * ft
				case ControlUpShift:
					if ft >= t3 {
						y += k
					}
				case ControlDownShift:
					if ft >= t3 {
						y -= k
					}
				}
				pts[t] = y
			}
			out = append(out, ControlSeries{Class: class, Points: pts})
		}
	}
	return out
}

// VectorRecords encodes real vectors as HDFS records, each standing for
// bytesEach virtual bytes (roughly the on-disk size of the serialized
// vector). Vector i's key is "v%06d" of i, keeping the last six digits;
// record keys are minted for every vector on every job load, so every key
// is a slice of one string built in one allocation.
func VectorRecords(vectors [][]float64, bytesEach float64) []hdfs.Record {
	var b strings.Builder
	b.Grow(len(vectors) * vectorKeyLen)
	for i := range vectors {
		key := [vectorKeyLen]byte{'v'}
		for p, n := vectorKeyLen-1, i; p >= 1; p-- {
			key[p] = byte('0' + n%10)
			n /= 10
		}
		b.Write(key[:])
	}
	keys := b.String()
	recs := make([]hdfs.Record, len(vectors))
	for i, v := range vectors {
		recs[i] = hdfs.Record{Key: keys[i*vectorKeyLen : (i+1)*vectorKeyLen], Value: v, Size: bytesEach}
	}
	return recs
}

// vectorKeyLen is the length of a vector record's key.
const vectorKeyLen = len("v000000")

// ControlVectors returns the data set as raw vectors (one 60-dim point per
// series) for the clustering library.
func ControlVectors(series []ControlSeries) [][]float64 {
	out := make([][]float64, len(series))
	for i, s := range series {
		out[i] = s.Points
	}
	return out
}
