// Package datasets generates the inputs of the paper's experiments: an
// English-like text corpus for Wordcount (standing in for the TOEFL reading
// materials), the UCI Synthetic Control Chart Time Series data set (Alcock &
// Manolopoulos generator) for Figure 6, and the 1000-sample three-Gaussian
// mixture of Mahout's DisplayClustering demo for Figures 7 and 8.
//
// All generators are deterministic given a *rand.Rand, so experiments are
// reproducible from the simulation seed.
//
// The package holds no mutable state. Its one shared value is the word
// table, built once at initialisation and read-only after: Text indexes it
// directly and Vocabulary returns copies, so concurrent simulations share
// it freely.
package datasets

import (
	"math/rand"
	"strings"

	"vhadoop/internal/hdfs"
)

// syllables compose a pronounceable pseudo-English vocabulary.
var syllables = []string{
	"ba", "be", "bi", "bo", "bu", "ca", "ce", "ci", "co", "cu",
	"da", "de", "di", "do", "du", "fa", "fe", "fi", "fo", "fu",
	"ga", "ge", "gi", "go", "gu", "la", "le", "li", "lo", "lu",
	"ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
	"ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su",
	"ta", "te", "ti", "to", "tu", "va", "ve", "vi", "vo", "vu",
}

// tableWords is the size of the shared word table: every word of one or
// two syllables, which covers every vocabulary the tree generates text from.
const tableWords = 60 * 60

// table holds word i for every i < tableWords. It is built once at package
// initialisation and never written after: Text indexes it directly, and
// Vocabulary hands out copies.
var table = func() []string {
	words := make([]string, tableWords)
	for i := range words {
		words[i] = spell(i)
	}
	return words
}()

// spell returns word i: its base-60 digits as syllables, least significant
// first. Word i does not depend on the vocabulary size.
func spell(i int) string {
	var sb strings.Builder
	for {
		sb.WriteString(syllables[i%len(syllables)])
		i /= len(syllables)
		if i == 0 {
			return sb.String()
		}
	}
}

// Vocabulary returns n distinct pseudo-English words deterministically, in
// a fresh slice the caller owns. Vocabulary(n) is a prefix of Vocabulary(m)
// for every n < m.
func Vocabulary(n int) []string {
	words := make([]string, n)
	copy(words, table)
	for i := len(table); i < n; i++ {
		words[i] = spell(i)
	}
	return words
}

// TextOptions controls corpus generation.
type TextOptions struct {
	VirtualBytes   float64 // the size the corpus stands for (drives I/O cost)
	RealLines      int     // actual lines generated (drives real word counts)
	WordsPerLine   int
	VocabularySize int
	ZipfS          float64 // word-frequency skew (s > 1)
}

// DefaultTextOptions scales the real corpus with the virtual size so mapper
// work grows with the input, while keeping simulation memory bounded.
func DefaultTextOptions(virtualBytes float64) TextOptions {
	lines := int(virtualBytes / 1e6) // one real line per virtual MB
	if lines < 32 {
		lines = 32
	}
	if lines > 8192 {
		lines = 8192
	}
	return TextOptions{
		VirtualBytes:   virtualBytes,
		RealLines:      lines,
		WordsPerLine:   12,
		VocabularySize: 600,
		ZipfS:          1.2,
	}
}

// Line is one corpus record: real text plus the virtual bytes it stands
// for, so mappers can scale their emissions to the simulated data volume.
type Line struct {
	Text  string
	Bytes float64
}

// Text generates a Zipf-distributed corpus as HDFS records (one line per
// record, value type Line). Word frequencies follow the heavy-tailed
// distribution of natural prose, which is what makes Wordcount's combiner
// effective.
func Text(rng *rand.Rand, opts TextOptions) []hdfs.Record {
	vocab := table // read-only: Zipf draws index below VocabularySize
	if opts.VocabularySize > len(table) {
		vocab = Vocabulary(opts.VocabularySize)
	}
	zipf := rand.NewZipf(rng, opts.ZipfS, 1, uint64(opts.VocabularySize-1))
	recs := make([]hdfs.Record, opts.RealLines)
	per := opts.VirtualBytes / float64(opts.RealLines)
	var sb strings.Builder
	for i := range recs {
		sb.Reset()
		for w := 0; w < opts.WordsPerLine; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(vocab[zipf.Uint64()])
		}
		recs[i] = hdfs.Record{Key: "", Value: Line{Text: sb.String(), Bytes: per}, Size: per}
	}
	return recs
}

// CountWords computes the reference word counts for a corpus: the ground
// truth Wordcount's output is checked against. Only tests call it, in two
// packages: datasets' TestTextZipfSkew and workloads'
// TestWordcountMatchesReferenceCounts.
func CountWords(recs []hdfs.Record) map[string]int {
	counts := make(map[string]int)
	for _, r := range recs {
		for _, w := range strings.Fields(r.Value.(Line).Text) {
			counts[w]++
		}
	}
	return counts
}
