package core_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/gen"
	"repro/internal/graph"
)

// saveToBytes runs p.SaveIndex into an in-memory container.
func saveToBytes(p core.Persistable) ([]byte, error) {
	w := diskfmt.NewWriter(0, 0, "")
	if err := p.SaveIndex(w); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err := w.WriteTo(&buf)
	return buf.Bytes(), err
}

// loadFromBytes parses b as a container and runs p.LoadIndex over it.
func loadFromBytes(p core.Persistable, b []byte, ds *graph.Dataset) error {
	r, err := diskfmt.FromBytes(b)
	if err != nil {
		return err
	}
	return p.LoadIndex(r, ds)
}

// TestPersistenceRoundTrip builds each method, saves it, loads it into a
// fresh instance, and checks the loaded index answers identically.
func TestPersistenceRoundTrip(t *testing.T) {
	ds := testDataset(t)
	queries := generateQueries(t, ds, 4, []int{3, 6})
	ctx := context.Background()

	fresh := allMethods()
	for i, m := range allMethods() {
		m := m
		target := fresh[i]
		t.Run(m.Name(), func(t *testing.T) {
			p, ok := m.(core.Persistable)
			if !ok {
				t.Fatalf("%s does not implement Persistable", m.Name())
			}
			if _, err := saveToBytes(p); err == nil {
				t.Errorf("save before Build should error")
			}
			if err := m.Build(ctx, ds); err != nil {
				t.Fatalf("Build: %v", err)
			}
			saved, err := saveToBytes(p)
			if err != nil {
				t.Fatalf("SaveIndex: %v", err)
			}
			if err := loadFromBytes(target.(core.Persistable), saved, ds); err != nil {
				t.Fatalf("LoadIndex: %v", err)
			}
			procA := core.NewProcessor(m, ds)
			procB := core.NewProcessor(target, ds)
			for qi, q := range queries {
				ra, err := procA.Query(q)
				if err != nil {
					t.Fatalf("original query %d: %v", qi, err)
				}
				rb, err := procB.Query(q)
				if err != nil {
					t.Fatalf("loaded query %d: %v", qi, err)
				}
				if !ra.Answers.Equal(rb.Answers) {
					t.Errorf("query %d: answers diverge after round trip", qi)
				}
				if !ra.Candidates.Equal(rb.Candidates) {
					t.Errorf("query %d: candidates diverge after round trip", qi)
				}
			}
		})
	}
}

// TestPersistenceRejectsWrongDataset checks the dataset-mismatch guard.
func TestPersistenceRejectsWrongDataset(t *testing.T) {
	ds := testDataset(t)
	other := gen.Synthetic(gen.SynthConfig{
		NumGraphs: ds.Len() + 5, MeanNodes: 10, MeanDensity: 0.3, NumLabels: 3, Seed: 99,
	})
	ctx := context.Background()
	for _, m := range allMethods() {
		p := m.(core.Persistable)
		if err := m.Build(ctx, ds); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		saved, err := saveToBytes(p)
		if err != nil {
			t.Fatalf("%s save: %v", m.Name(), err)
		}
		if err := loadFromBytes(p, saved, other); err == nil {
			t.Errorf("%s: load over a different-size dataset should fail", m.Name())
		}
	}
}

// TestPersistenceRejectsGarbage checks that neither bytes that are no
// container nor a well-formed container holding none of the method's
// sections load.
func TestPersistenceRejectsGarbage(t *testing.T) {
	ds := testDataset(t)
	var empty bytes.Buffer
	if _, err := diskfmt.NewWriter(0, 0, "").WriteTo(&empty); err != nil {
		t.Fatal(err)
	}
	for _, m := range allMethods() {
		p := m.(core.Persistable)
		if err := loadFromBytes(p, []byte("not a container"), ds); err == nil {
			t.Errorf("%s: garbage accepted", m.Name())
		}
		if err := loadFromBytes(p, empty.Bytes(), ds); err == nil {
			t.Errorf("%s: container without sections accepted", m.Name())
		}
	}
}
