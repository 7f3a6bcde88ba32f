package envmodel

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func syntheticDataset(rng *rand.Rand, n int) *Dataset {
	d := NewDataset(2, 2)
	for i := 0; i < n; i++ {
		s := []float64{rng.Float64() * 5, rng.Float64() * 5}
		a := []float64{rng.Float64(), rng.Float64()}
		nx := []float64{s[0]*0.9 + a[0], s[1]*0.8 + a[1]}
		d.Add(s, a, nx)
	}
	return d
}

// TestModelStateRoundTrip fits a model partway, snapshots it through JSON,
// restores into a fresh model, and verifies continued fitting and
// prediction are bit-identical.
func TestModelStateRoundTrip(t *testing.T) {
	cfg := Config{StateDim: 2, ActionDim: 2, Hidden: []int{12}, Seed: 31}
	data := syntheticDataset(rand.New(rand.NewSource(17)), 60)

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Fit(data, 3); err != nil {
		t.Fatal(err)
	}

	blob, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	var st ModelState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(&st); err != nil {
		t.Fatal(err)
	}
	if !b.Trained() {
		t.Fatal("restored model not marked trained")
	}

	lossA, err := a.Fit(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	lossB, err := b.Fit(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lossA {
		if lossA[i] != lossB[i] {
			t.Fatalf("epoch %d loss diverged: %g != %g", i, lossA[i], lossB[i])
		}
	}
	pa := a.Predict([]float64{1, 2}, []float64{0.5, 0.5})
	pb := b.Predict([]float64{1, 2}, []float64{0.5, 0.5})
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("prediction diverged at %d: %g != %g", i, pa[i], pb[i])
		}
	}
}

func TestModelRestoreRejectsCorruptState(t *testing.T) {
	cfg := Config{StateDim: 2, ActionDim: 2, Hidden: []int{12}, Seed: 32}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Fit(syntheticDataset(rand.New(rand.NewSource(18)), 40), 2); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(s *ModelState){
		"nil net":        func(s *ModelState) { s.Net = nil },
		"nan weight":     func(s *ModelState) { s.Net.Layers[0].W.Data[0] = math.NaN() },
		"one normalizer": func(s *ModelState) { s.OutNorm = nil },
		"zero std":       func(s *ModelState) { s.InNorm.Std[0] = 0 },
		"norm width":     func(s *ModelState) { s.OutNorm.Mean = s.OutNorm.Mean[:1] },
	}
	for name, corrupt := range cases {
		st := a.State()
		corrupt(st)
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Restore(st); err == nil {
			t.Errorf("%s: Restore accepted corrupt state", name)
		}
	}
}

func TestModelCheckHealth(t *testing.T) {
	cfg := Config{StateDim: 2, ActionDim: 2, Hidden: []int{12}, Seed: 33}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckHealth(); err != nil {
		t.Fatalf("fresh model unhealthy: %v", err)
	}
	m.net.Layers[0].W.Data[0] = math.Inf(-1)
	if err := m.CheckHealth(); err == nil {
		t.Fatal("Inf weight not detected")
	}
}
