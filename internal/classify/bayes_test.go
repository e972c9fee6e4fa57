package classify

import (
	"math"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/hdfs"
	"vhadoop/internal/sim"
)

var testLabels = []string{"sports", "science", "politics"}

func TestReferenceTrainAndClassify(t *testing.T) {
	docs := SyntheticDocs(7, testLabels, 80, 30)
	m, err := Train(docs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Labels) != 3 {
		t.Fatalf("labels = %v", m.Labels)
	}
	if acc := Accuracy(m, docs); acc < 0.95 {
		t.Fatalf("training accuracy = %v", acc)
	}
	// Held-out set from a different seed.
	held := SyntheticDocs(99, testLabels, 20, 30)
	if acc := Accuracy(m, held); acc < 0.85 {
		t.Fatalf("held-out accuracy = %v", acc)
	}
}

func TestTrainRejectsEmptyAndUnlabelled(t *testing.T) {
	if _, err := Train(nil, 1.0); err == nil {
		t.Fatal("empty corpus accepted")
	}
	if _, err := Train([]Document{{ID: "x", Tokens: []string{"a"}}}, 1.0); err == nil {
		t.Fatal("unlabelled training document accepted")
	}
}

func TestMRTrainMatchesReference(t *testing.T) {
	docs := SyntheticDocs(7, testLabels, 60, 25)
	opts := core.DefaultOptions()
	opts.Nodes = 8
	pl := core.MustNewPlatform(opts)
	tr := NewTrainer(pl, "/bayes/train")
	var mr *Model
	_, err := pl.Run(func(p *sim.Proc) error {
		if err := tr.Load(p, docs); err != nil {
			return err
		}
		var err error
		mr, _, err = tr.TrainMR(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Train(docs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if mr.TotalDocs != ref.TotalDocs {
		t.Fatalf("total docs: mr=%v ref=%v", mr.TotalDocs, ref.TotalDocs)
	}
	for _, l := range ref.Labels {
		if mr.LabelDocs[l] != ref.LabelDocs[l] {
			t.Fatalf("label %s docs: mr=%v ref=%v", l, mr.LabelDocs[l], ref.LabelDocs[l])
		}
		if math.Abs(mr.TotalTokens[l]-ref.TotalTokens[l]) > 1e-9 {
			t.Fatalf("label %s tokens: mr=%v ref=%v", l, mr.TotalTokens[l], ref.TotalTokens[l])
		}
		for tok, n := range ref.TokenCounts[l] {
			if mr.TokenCounts[l][tok] != n {
				t.Fatalf("count[%s][%s]: mr=%v ref=%v", l, tok, mr.TokenCounts[l][tok], n)
			}
		}
	}
	if len(mr.Vocabulary) != len(ref.Vocabulary) {
		t.Fatalf("vocabulary: mr=%d ref=%d", len(mr.Vocabulary), len(ref.Vocabulary))
	}
}

func TestMRClassifyEndToEnd(t *testing.T) {
	train := SyntheticDocs(7, testLabels, 60, 25)
	test := SyntheticDocs(99, testLabels, 15, 25)
	opts := core.DefaultOptions()
	opts.Nodes = 8
	pl := core.MustNewPlatform(opts)
	tr := NewTrainer(pl, "/bayes/train")
	var preds map[string]string
	_, err := pl.Run(func(p *sim.Proc) error {
		if err := tr.Load(p, train); err != nil {
			return err
		}
		m, _, err := tr.TrainMR(p)
		if err != nil {
			return err
		}
		// Upload the unlabelled test set.
		unl := Unlabel(test)
		recs := make([]hdfs.Record, len(unl))
		for i, d := range unl {
			recs[i] = hdfs.Record{Key: d.ID, Value: d, Size: tr.BytesPerDoc}
		}
		if _, err := pl.DFS.Write(p, pl.Master, "/bayes/test", tr.BytesPerDoc*float64(len(recs)), recs); err != nil {
			return err
		}
		preds, _, err = tr.ClassifyMR(p, m, "/bayes/test")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(test) {
		t.Fatalf("predictions = %d, want %d", len(preds), len(test))
	}
	correct := 0
	for _, d := range test {
		if preds[d.ID] == d.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.8 {
		t.Fatalf("MR classification accuracy = %v", acc)
	}
}

func TestSyntheticDocsDeterministic(t *testing.T) {
	a := SyntheticDocs(3, testLabels, 5, 10)
	b := SyntheticDocs(3, testLabels, 5, 10)
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Tokens[0] != b[i].Tokens[0] {
			t.Fatal("corpus not deterministic")
		}
	}
}

// Property: the model's token totals always equal the corpus's token count,
// for any synthetic corpus shape.
func TestModelCountConservationProperty(t *testing.T) {
	docs := SyntheticDocs(11, testLabels, 30, 20)
	m, err := Train(docs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var wantTokens int
	for _, d := range docs {
		wantTokens += len(d.Tokens)
	}
	var gotTokens float64
	for _, l := range m.Labels {
		gotTokens += m.TotalTokens[l]
	}
	if int(gotTokens) != wantTokens {
		t.Fatalf("token totals %v != corpus tokens %d", gotTokens, wantTokens)
	}
	if int(m.TotalDocs) != len(docs) {
		t.Fatalf("doc total %v != %d", m.TotalDocs, len(docs))
	}
}

func TestSmoothingPreventsZeroProbabilities(t *testing.T) {
	docs := []Document{
		{ID: "1", Label: "a", Tokens: []string{"x"}},
		{ID: "2", Label: "b", Tokens: []string{"y"}},
	}
	m, err := Train(docs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// A token never seen under either label must still classify finitely.
	if got := m.Classify([]string{"zzz"}); got != "a" && got != "b" {
		t.Fatalf("classified unseen token as %q", got)
	}
}

// TestTiedPosteriorsPickFirstSortedLabel pins the label order that breaks
// ties. Three one-document labels give every label the same prior, and a
// query with no tokens adds no evidence, so every posterior ties and
// Classify returns the first label in Model.Labels. finalize collects the
// labels from a map and sorts them; without the sort the winner follows
// map-visit order, which changes from run to run, so the test trains a
// fresh model many times.
func TestTiedPosteriorsPickFirstSortedLabel(t *testing.T) {
	docs := []Document{
		{ID: "1", Label: "sports", Tokens: []string{"ball"}},
		{ID: "2", Label: "tech", Tokens: []string{"chip"}},
		{ID: "3", Label: "arts", Tokens: []string{"paint"}},
	}
	for i := 0; i < 32; i++ {
		m, err := Train(docs, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Classify(nil); got != "arts" {
			t.Fatalf("run %d: tied query classified as %q, want the first sorted label %q", i, got, "arts")
		}
	}
}
