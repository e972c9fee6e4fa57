// Package classify extends the vHadoop Machine Learning Algorithm Library
// with its second category: MapReduce-based classification. The paper (§II-B)
// describes the library as covering "clustering, classification,
// recommendations"; its evaluation exercises clustering, and this package
// supplies the classification side in Mahout 0.6's style — a multinomial
// Naive Bayes classifier with a distributed training job (count feature and
// label frequencies) and a map-only classification job.
//
// As everywhere in this repository, both phases run real computation over
// real records: the trained model contains actual smoothed log-likelihoods,
// and the in-memory reference implementation must agree exactly with the
// MapReduce run.
package classify

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/hdfs"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// Document is one labelled training (or unlabelled test) example.
type Document struct {
	ID     string
	Label  string // empty for unlabelled documents
	Tokens []string
}

// Model is a trained multinomial Naive Bayes classifier.
type Model struct {
	Alpha       float64 // Laplace smoothing
	Labels      []string
	LabelDocs   map[string]float64            // documents per label
	TokenCounts map[string]map[string]float64 // label -> token -> count
	TotalTokens map[string]float64            // label -> total token count
	Vocabulary  map[string]bool
	TotalDocs   float64
}

// newModel returns an empty model with the given smoothing.
func newModel(alpha float64) *Model {
	return &Model{
		Alpha:       alpha,
		LabelDocs:   make(map[string]float64),
		TokenCounts: make(map[string]map[string]float64),
		TotalTokens: make(map[string]float64),
		Vocabulary:  make(map[string]bool),
	}
}

// observe folds one (label, token, count) observation into the model.
func (m *Model) observe(label, token string, count float64) {
	tc, ok := m.TokenCounts[label]
	if !ok {
		tc = make(map[string]float64)
		m.TokenCounts[label] = tc
	}
	tc[token] += count
	m.TotalTokens[label] += count
	m.Vocabulary[token] = true
}

// finalize sorts the label list after all observations.
func (m *Model) finalize() {
	m.Labels = m.Labels[:0]
	for l := range m.LabelDocs {
		m.Labels = append(m.Labels, l)
	}
	sort.Strings(m.Labels)
}

// logPosterior scores one label for a token multiset.
func (m *Model) logPosterior(label string, tokens []string) float64 {
	v := float64(len(m.Vocabulary))
	prior := math.Log((m.LabelDocs[label] + m.Alpha) / (m.TotalDocs + m.Alpha*float64(len(m.Labels))))
	denom := m.TotalTokens[label] + m.Alpha*v
	s := prior
	for _, tok := range tokens {
		s += math.Log((m.TokenCounts[label][tok] + m.Alpha) / denom)
	}
	return s
}

// Classify returns the most probable label for the tokens.
func (m *Model) Classify(tokens []string) string {
	best, bestScore := "", math.Inf(-1)
	for _, l := range m.Labels {
		if s := m.logPosterior(l, tokens); s > bestScore {
			best, bestScore = l, s
		}
	}
	return best
}

// Train is the in-memory reference trainer.
func Train(docs []Document, alpha float64) (*Model, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("classify: no training documents")
	}
	m := newModel(alpha)
	for _, d := range docs {
		if d.Label == "" {
			return nil, fmt.Errorf("classify: unlabelled training document %s", d.ID)
		}
		m.LabelDocs[d.Label]++
		m.TotalDocs++
		for _, tok := range d.Tokens {
			m.observe(d.Label, tok, 1)
		}
	}
	m.finalize()
	return m, nil
}

// Accuracy scores predictions against the documents' true labels.
func Accuracy(m *Model, docs []Document) float64 {
	if len(docs) == 0 {
		return 0
	}
	correct := 0
	for _, d := range docs {
		if m.Classify(d.Tokens) == d.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(docs))
}

// Trainer runs Naive Bayes as MapReduce jobs on a vHadoop platform.
type Trainer struct {
	pl    *core.Platform
	input string
	Alpha float64
	// BytesPerDoc is the virtual on-disk size of one serialized document.
	BytesPerDoc float64
	Cost        mapreduce.CostModel
	// SubmitOpts (tenant, priority, deadline) are forwarded to every
	// MapReduce job the trainer submits.
	SubmitOpts []mapreduce.SubmitOption
}

// runJob submits spec with the trainer's submission options and waits,
// returning the collected output.
func (tr *Trainer) runJob(p *sim.Proc, spec mapreduce.JobSpec) ([]mapreduce.KV, mapreduce.JobStats, error) {
	h, err := tr.pl.MR.Submit(p, spec, tr.SubmitOpts...)
	if err != nil {
		return nil, mapreduce.JobStats{}, err
	}
	stats, err := h.Wait(p)
	if err != nil {
		return nil, stats, err
	}
	return h.OutputRecords(), stats, nil
}

// NewTrainer prepares a distributed trainer reading from the given HDFS path.
func NewTrainer(pl *core.Platform, input string) *Trainer {
	return &Trainer{
		pl:          pl,
		input:       input,
		Alpha:       1.0,
		BytesPerDoc: 2048,
		Cost: mapreduce.CostModel{
			MapCPUPerRecord:    5e-5,
			ReduceCPUPerRecord: 1e-5,
			SortCPUPerByte:     5e-9,
			TaskSetupCPU:       1.5,
		},
	}
}

// Load uploads the documents to HDFS.
func (tr *Trainer) Load(p *sim.Proc, docs []Document) error {
	recs := make([]hdfs.Record, len(docs))
	for i, d := range docs {
		recs[i] = hdfs.Record{Key: d.ID, Value: d, Size: tr.BytesPerDoc}
	}
	size := tr.BytesPerDoc * float64(len(docs))
	_, err := tr.pl.DFS.Write(p, tr.pl.Master, tr.input, size, recs)
	return err
}

// countKey encodes the two count families the trainer aggregates.
func tokenKey(label, token string) string { return "t/" + label + "/" + token }
func labelKey(label string) string        { return "l/" + label }

// TrainMR runs the distributed training job: mappers emit per-(label,token)
// and per-label counts, a combiner pre-aggregates, reducers sum, and the
// driver assembles the model from the output.
func (tr *Trainer) TrainMR(p *sim.Proc) (*Model, mapreduce.JobStats, error) {
	cfg := mapreduce.JobSpec{
		Name:       "bayes-train",
		Input:      []string{tr.input},
		NumReduces: 4,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(_ string, value any, emit mapreduce.Emit) {
				d := value.(Document)
				emit(labelKey(d.Label), 1.0, 24)
				for _, tok := range d.Tokens {
					emit(tokenKey(d.Label, tok), 1.0, float64(len(tok))+16)
				}
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key string, values []any, emit mapreduce.Emit) {
				var sum float64
				for _, v := range values {
					sum += v.(float64)
				}
				emit(key, sum, float64(len(key))+8)
			})
		},
		Cost: tr.Cost,
	}
	cfg.NewCombiner = cfg.NewReducer
	out, stats, err := tr.runJob(p, cfg)
	if err != nil {
		return nil, stats, err
	}
	m := newModel(tr.Alpha)
	for _, kv := range out {
		count := kv.Value.(float64)
		switch {
		case strings.HasPrefix(kv.Key, "l/"):
			label := kv.Key[2:]
			m.LabelDocs[label] += count
			m.TotalDocs += count
		case strings.HasPrefix(kv.Key, "t/"):
			rest := kv.Key[2:]
			slash := strings.IndexByte(rest, '/')
			if slash < 0 {
				return nil, stats, fmt.Errorf("classify: malformed count key %q", kv.Key)
			}
			m.observe(rest[:slash], rest[slash+1:], count)
		default:
			return nil, stats, fmt.Errorf("classify: unknown count key %q", kv.Key)
		}
	}
	m.finalize()
	return m, stats, nil
}

// ClassifyMR runs the map-only classification job over a test file whose
// records carry unlabelled Documents; the model ships to every mapper as a
// side input. It returns docID -> predicted label.
func (tr *Trainer) ClassifyMR(p *sim.Proc, m *Model, testFile string) (map[string]string, mapreduce.JobStats, error) {
	// Persist the model so mappers pay for reading it (Mahout stores the
	// trained model in HDFS).
	modelFile := tr.input + ".model"
	modelBytes := float64(len(m.Vocabulary)*len(m.Labels))*12 + 4096
	if !tr.pl.DFS.Exists(modelFile) {
		if _, err := tr.pl.DFS.Write(p, tr.pl.Master, modelFile, modelBytes, nil); err != nil {
			return nil, mapreduce.JobStats{}, err
		}
	}
	cfg := mapreduce.JobSpec{
		Name:      "bayes-classify",
		Input:     []string{testFile},
		SideInput: []string{modelFile},
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(_ string, value any, emit mapreduce.Emit) {
				d := value.(Document)
				emit(d.ID, m.Classify(d.Tokens), 32)
			})
		},
		Cost: tr.Cost,
	}
	out, stats, err := tr.runJob(p, cfg)
	if err != nil {
		return nil, stats, err
	}
	preds := make(map[string]string, len(out))
	for _, kv := range out {
		preds[kv.Key] = kv.Value.(string)
	}
	return preds, stats, nil
}

// SyntheticDocs generates a labelled corpus for tests and examples: each
// label boosts its own slice of the vocabulary, so the classes are learnable
// but overlapping.
func SyntheticDocs(seed int64, labels []string, perLabel, tokensPerDoc int) []Document {
	rng := rand.New(rand.NewSource(seed))
	vocab := datasets.Vocabulary(60 * len(labels))
	var docs []Document
	for li, label := range labels {
		own := vocab[li*60 : (li+1)*60]
		for i := 0; i < perLabel; i++ {
			d := Document{ID: fmt.Sprintf("%s-%04d", label, i), Label: label}
			for t := 0; t < tokensPerDoc; t++ {
				if rng.Float64() < 0.7 {
					d.Tokens = append(d.Tokens, own[rng.Intn(len(own))])
				} else {
					d.Tokens = append(d.Tokens, vocab[rng.Intn(len(vocab))])
				}
			}
			docs = append(docs, d)
		}
	}
	// Deterministic shuffle so labels interleave across HDFS blocks.
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	return docs
}

// Unlabel strips labels (for classification inputs), returning copies.
func Unlabel(docs []Document) []Document {
	out := make([]Document, len(docs))
	for i, d := range docs {
		out[i] = Document{ID: d.ID, Tokens: d.Tokens}
	}
	return out
}
