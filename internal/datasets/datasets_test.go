package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestVocabularyDistinct(t *testing.T) {
	words := Vocabulary(1000)
	seen := make(map[string]bool, len(words))
	for _, w := range words {
		if w == "" {
			t.Fatal("empty word")
		}
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
	}
}

// referenceWord spells word i as the per-call builder the table replaced
// did: its base-60 digits as syllables, least significant first.
func referenceWord(i int) string {
	var sb strings.Builder
	x := i
	for {
		sb.WriteString(syllables[x%len(syllables)])
		x /= len(syllables)
		if x == 0 {
			break
		}
	}
	return sb.String()
}

// TestVocabularyPrefix checks the shared table against the reference
// spelling, and that Vocabulary(n) is a prefix of Vocabulary(m) for n < m,
// below, at and above the table size.
func TestVocabularyPrefix(t *testing.T) {
	sizes := []int{0, 1, 59, 60, 200, 600, tableWords - 1, tableWords, tableWords + 1, 2 * tableWords}
	longest := Vocabulary(sizes[len(sizes)-1])
	for i, w := range longest {
		if want := referenceWord(i); w != want {
			t.Fatalf("word %d = %q, want %q", i, w, want)
		}
	}
	for _, n := range sizes {
		words := Vocabulary(n)
		if len(words) != n {
			t.Fatalf("Vocabulary(%d) has %d words", n, len(words))
		}
		for i, w := range words {
			if w != longest[i] {
				t.Fatalf("Vocabulary(%d)[%d] = %q, Vocabulary(%d)[%d] = %q", n, i, w, len(longest), i, longest[i])
			}
		}
	}
}

// TestVocabularyCopyIsPrivate writes into returned vocabularies, below and
// above the table size, and checks that neither a later Vocabulary call
// nor a same-seed Text corpus sees the writes.
func TestVocabularyCopyIsPrivate(t *testing.T) {
	for _, n := range []int{600, tableWords + 10} {
		opts := DefaultTextOptions(64e6)
		opts.VocabularySize = n
		before := Text(rand.New(rand.NewSource(5)), opts)
		want := Vocabulary(n)
		scribbled := Vocabulary(n)
		for i := range scribbled {
			scribbled[i] = "x"
		}
		for i, w := range Vocabulary(n) {
			if w != want[i] {
				t.Fatalf("n=%d: word %d = %q after a write into another copy, want %q", n, i, w, want[i])
			}
		}
		after := Text(rand.New(rand.NewSource(5)), opts)
		for i := range before {
			if a, b := before[i].Value.(Line).Text, after[i].Value.(Line).Text; a != b {
				t.Fatalf("n=%d: line %d = %q after a write into a vocabulary, was %q", n, i, b, a)
			}
		}
	}
}

func TestTextShapeAndSizes(t *testing.T) {
	opts := DefaultTextOptions(512e6)
	recs := Text(rand.New(rand.NewSource(7)), opts)
	if len(recs) != opts.RealLines {
		t.Fatalf("lines = %d, want %d", len(recs), opts.RealLines)
	}
	var total float64
	for _, r := range recs {
		total += r.Size
		line := r.Value.(Line)
		if n := len(strings.Fields(line.Text)); n != opts.WordsPerLine {
			t.Fatalf("line has %d words, want %d", n, opts.WordsPerLine)
		}
		if line.Bytes != r.Size {
			t.Fatalf("line bytes %v != record size %v", line.Bytes, r.Size)
		}
	}
	if math.Abs(total-512e6) > 1 {
		t.Fatalf("virtual sizes sum to %v, want 512e6", total)
	}
}

func TestTextZipfSkew(t *testing.T) {
	recs := Text(rand.New(rand.NewSource(7)), DefaultTextOptions(1024e6))
	counts := CountWords(recs)
	total, maxCount := 0, 0
	for _, n := range counts {
		total += n
		if n > maxCount {
			maxCount = n
		}
	}
	// Zipf: the most common word should dominate far beyond uniform share.
	uniform := float64(total) / float64(len(counts))
	if float64(maxCount) < 5*uniform {
		t.Fatalf("top word count %d vs uniform %f: not skewed", maxCount, uniform)
	}
}

func TestTextDeterministic(t *testing.T) {
	a := Text(rand.New(rand.NewSource(3)), DefaultTextOptions(64e6))
	b := Text(rand.New(rand.NewSource(3)), DefaultTextOptions(64e6))
	for i := range a {
		if a[i].Value.(Line).Text != b[i].Value.(Line).Text {
			t.Fatalf("line %d differs between same-seed runs", i)
		}
	}
}

func TestControlChartDimensions(t *testing.T) {
	series := ControlChart(rand.New(rand.NewSource(1)), DefaultControlChartOptions())
	if len(series) != 600 {
		t.Fatalf("series = %d, want 600", len(series))
	}
	perClass := make(map[ControlClass]int)
	for _, s := range series {
		if len(s.Points) != 60 {
			t.Fatalf("series length %d, want 60", len(s.Points))
		}
		perClass[s.Class]++
	}
	for c := ControlNormal; c <= ControlDownShift; c++ {
		if perClass[c] != 100 {
			t.Fatalf("class %v has %d series, want 100", c, perClass[c])
		}
	}
}

func TestControlChartClassShapes(t *testing.T) {
	series := ControlChart(rand.New(rand.NewSource(1)), DefaultControlChartOptions())
	meanDelta := func(s ControlSeries) float64 {
		n := len(s.Points)
		firstHalf, secondHalf := 0.0, 0.0
		for i, p := range s.Points {
			if i < n/2 {
				firstHalf += p
			} else {
				secondHalf += p
			}
		}
		return secondHalf/float64(n-n/2) - firstHalf/float64(n/2)
	}
	agg := make(map[ControlClass]float64)
	for _, s := range series {
		agg[s.Class] += meanDelta(s)
	}
	// Increasing trends and upward shifts raise the second half; decreasing
	// and downward shifts lower it; normal stays near zero.
	if agg[ControlIncreasing] < 100 || agg[ControlUpShift] < 100 {
		t.Fatalf("up classes not rising: inc=%f shift=%f", agg[ControlIncreasing], agg[ControlUpShift])
	}
	if agg[ControlDecreasing] > -100 || agg[ControlDownShift] > -100 {
		t.Fatalf("down classes not falling: dec=%f shift=%f", agg[ControlDecreasing], agg[ControlDownShift])
	}
	if math.Abs(agg[ControlNormal]) > 50 {
		t.Fatalf("normal class drifting: %f", agg[ControlNormal])
	}
}

func TestGaussianMixtureCounts(t *testing.T) {
	pts, labels := DisplayClusteringSample(rand.New(rand.NewSource(1)))
	if len(pts) != 1000 || len(labels) != 1000 {
		t.Fatalf("points=%d labels=%d, want 1000", len(pts), len(labels))
	}
	counts := make(map[int]int)
	for _, l := range labels {
		counts[l]++
	}
	if counts[0] != 500 || counts[1] != 300 || counts[2] != 200 {
		t.Fatalf("component counts = %v", counts)
	}
}

func TestGaussianComponentSpread(t *testing.T) {
	pts, labels := DisplayClusteringSample(rand.New(rand.NewSource(1)))
	variance := func(ci int) float64 {
		var sum, sumSq float64
		n := 0
		for i, p := range pts {
			if labels[i] != ci {
				continue
			}
			sum += p[0]
			sumSq += p[0] * p[0]
			n++
		}
		mean := sum / float64(n)
		return sumSq/float64(n) - mean*mean
	}
	v0, v2 := variance(0), variance(2)
	if v0 < 10*v2 {
		t.Fatalf("wide component (var %f) not much wider than tight one (%f)", v0, v2)
	}
}

// Property: VectorRecords preserves every vector, keys vector i "v%06d" of
// i, and sizes sum correctly.
func TestVectorRecordsProperty(t *testing.T) {
	prop := func(n uint8, each uint16) bool {
		vecs := make([][]float64, int(n%50)+1)
		for i := range vecs {
			vecs[i] = []float64{float64(i), float64(i) * 2}
		}
		size := float64(each%1000) + 1
		recs := VectorRecords(vecs, size)
		if len(recs) != len(vecs) {
			return false
		}
		var total float64
		for i, r := range recs {
			v := r.Value.([]float64)
			if v[0] != float64(i) || r.Key != fmt.Sprintf("v%06d", i) {
				return false
			}
			total += r.Size
		}
		return math.Abs(total-size*float64(len(vecs))) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// VectorRecords mints every key from one string: two allocations, that
// string and the records, however many vectors it encodes.
func TestVectorRecordsAllocs(t *testing.T) {
	vecs := make([][]float64, 1000)
	if n := testing.AllocsPerRun(10, func() { VectorRecords(vecs, 8) }); n != 2 {
		t.Fatalf("%v allocs per VectorRecords of 1000 vectors, want 2", n)
	}
}
