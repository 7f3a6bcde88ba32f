package envmodel

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"miras/internal/mat"
)

// linearDynamics generates transitions of a simple queueing-like linear
// system: next_j = max(0, s_j + arrivals_j − rate·a_j), which has the same
// qualitative shape as a microservice window (work in minus work served).
func linearDynamics(n int, stateDim int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := NewDataset(stateDim, stateDim)
	s := make([]float64, stateDim)
	a := make([]float64, stateDim)
	next := make([]float64, stateDim)
	for i := 0; i < n; i++ {
		for j := range s {
			s[j] = rng.Float64() * 50
		}
		var sum float64
		for j := range a {
			a[j] = rng.ExpFloat64()
			sum += a[j]
		}
		mat.VecScale(a, 1/sum)
		for j := range next {
			next[j] = s[j] + 3 - 40*a[j]
			if next[j] < 0 {
				next[j] = 0
			}
		}
		d.Add(s, a, next)
	}
	return d
}

func TestDatasetAddAndDims(t *testing.T) {
	d := NewDataset(3, 2)
	d.Add([]float64{1, 2, 3}, []float64{0.5, 0.5}, []float64{2, 3, 4})
	if d.Len() != 1 {
		t.Fatalf("Len=%d", d.Len())
	}
	tr := d.At(0)
	if tr.State[0] != 1 || tr.Action[1] != 0.5 || tr.Next[2] != 4 {
		t.Fatalf("transition corrupted: %+v", tr)
	}
}

func TestDatasetAddCopies(t *testing.T) {
	d := NewDataset(1, 1)
	s := []float64{1}
	d.Add(s, []float64{0.5}, []float64{2})
	s[0] = 99
	if d.At(0).State[0] != 1 {
		t.Fatal("Add aliased caller slice")
	}
}

func TestDatasetAddPanicsOnDims(t *testing.T) {
	d := NewDataset(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Add([]float64{1}, []float64{1, 2}, []float64{1, 2})
}

func TestDatasetSplit(t *testing.T) {
	d := linearDynamics(100, 2, 1)
	rng := rand.New(rand.NewSource(2))
	train, test := d.Split(0.2, rng)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d, want 80/20", train.Len(), test.Len())
	}
}

func TestDatasetSampleStateFromStored(t *testing.T) {
	d := NewDataset(1, 1)
	d.Add([]float64{7}, []float64{1}, []float64{8})
	rng := rand.New(rand.NewSource(3))
	if got := d.SampleState(rng); got[0] != 7 {
		t.Fatalf("SampleState=%v", got)
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	rows := [][]float64{{1, 10}, {3, 30}, {5, 50}}
	n := FitNormalizer(rows)
	if math.Abs(n.Mean[0]-3) > 1e-12 || math.Abs(n.Mean[1]-30) > 1e-12 {
		t.Fatalf("mean=%v", n.Mean)
	}
	x := []float64{4, 20}
	normed := make([]float64, 2)
	n.Apply(normed, x)
	back := make([]float64, 2)
	n.Invert(back, normed)
	for i := range x {
		if math.Abs(back[i]-x[i]) > 1e-9 {
			t.Fatalf("round trip %v → %v", x, back)
		}
	}
}

func TestNormalizerConstantColumn(t *testing.T) {
	rows := [][]float64{{5}, {5}, {5}}
	n := FitNormalizer(rows)
	out := make([]float64, 1)
	n.Apply(out, []float64{5})
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Fatalf("constant column produced %v", out)
	}
}

// Property: Apply then Invert is identity for any data.
func TestNormalizerInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(6)
		rows := make([][]float64, 3+rng.Intn(20))
		for i := range rows {
			rows[i] = make([]float64, dim)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64() * 100
			}
		}
		n := FitNormalizer(rows)
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64() * 100
		}
		tmp := make([]float64, dim)
		back := make([]float64, dim)
		n.Apply(tmp, x)
		n.Invert(back, tmp)
		for j := range x {
			if math.Abs(back[j]-x[j]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := New(Config{StateDim: 0, ActionDim: 2}); err == nil {
		t.Fatal("expected error for zero state dim")
	}
	if _, err := New(Config{StateDim: 2, ActionDim: 0}); err == nil {
		t.Fatal("expected error for zero action dim")
	}
}

func TestModelFitReducesLossAndPredicts(t *testing.T) {
	if testing.Short() {
		t.Skip("full dynamics-model fit; skipped in -short mode")
	}
	d := linearDynamics(2000, 3, 4)
	rng := rand.New(rand.NewSource(5))
	train, test := d.Split(0.1, rng)
	m, err := New(Config{StateDim: 3, ActionDim: 3, Hidden: []int{32, 32}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if m.Trained() {
		t.Fatal("untrained model reports Trained")
	}
	losses, err := m.Fit(train, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Trained() {
		t.Fatal("trained model reports untrained")
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("training loss did not fall: first %g last %g", losses[0], losses[len(losses)-1])
	}
	mse, err := m.TestLoss(test)
	if err != nil {
		t.Fatal(err)
	}
	// States span [0, 50]; an MSE of 9 (RMSE 3 over 3 dims) means the model
	// tracks the dynamics well.
	if mse > 9 {
		t.Fatalf("test MSE %g too high for linear dynamics", mse)
	}
}

func TestModelFitValidation(t *testing.T) {
	m, _ := New(Config{StateDim: 2, ActionDim: 2})
	if _, err := m.Fit(NewDataset(3, 2), 1); err == nil {
		t.Fatal("expected error for dim mismatch")
	}
	if _, err := m.Fit(NewDataset(2, 2), 1); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	d := linearDynamics(10, 2, 7)
	if _, err := m.Fit(d, 0); err == nil {
		t.Fatal("expected error for zero epochs")
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	m, _ := New(Config{StateDim: 2, ActionDim: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Predict([]float64{1, 2}, []float64{0.5, 0.5})
}

func TestRewardOf(t *testing.T) {
	if got := RewardOf([]float64{2, 3, 4}); got != 1-9 {
		t.Fatalf("RewardOf=%g, want -8 (Eq. 1)", got)
	}
	if got := RewardOf([]float64{0, 0}); got != 1 {
		t.Fatalf("RewardOf(zeros)=%g, want 1", got)
	}
}

func TestRefinerThresholds(t *testing.T) {
	d := linearDynamics(1000, 2, 8)
	m, _ := New(Config{StateDim: 2, ActionDim: 2, Seed: 9})
	if _, err := m.Fit(d, 3); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	r, err := NewRefiner(m, d, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if r.Tau[j] >= r.Omega[j] {
			t.Fatalf("dim %d: tau %g >= omega %g", j, r.Tau[j], r.Omega[j])
		}
		// States are U(0,50): 20th percentile ≈ 10, 80th ≈ 40.
		if r.Tau[j] < 5 || r.Tau[j] > 15 {
			t.Fatalf("dim %d tau=%g, want ≈10", j, r.Tau[j])
		}
		if r.Omega[j] < 35 || r.Omega[j] > 45 {
			t.Fatalf("dim %d omega=%g, want ≈40", j, r.Omega[j])
		}
	}
}

func TestRefinerValidation(t *testing.T) {
	d := linearDynamics(100, 2, 11)
	m, _ := New(Config{StateDim: 2, ActionDim: 2, Seed: 12})
	_, _ = m.Fit(d, 1)
	rng := rand.New(rand.NewSource(13))
	if _, err := NewRefiner(m, d, 0, rng); err == nil {
		t.Fatal("expected error for p=0")
	}
	if _, err := NewRefiner(m, d, 60, rng); err == nil {
		t.Fatal("expected error for p=60")
	}
	if _, err := NewRefiner(m, NewDataset(2, 2), 20, rng); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	if _, err := NewRefiner(m, linearDynamics(10, 3, 14), 20, rng); err == nil {
		t.Fatal("expected error for dim mismatch")
	}
}

func TestRefinerAboveThresholdMatchesRawModel(t *testing.T) {
	d := linearDynamics(1000, 2, 15)
	m, _ := New(Config{StateDim: 2, ActionDim: 2, Seed: 16})
	if _, err := m.Fit(d, 5); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	r, err := NewRefiner(m, d, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	// A state far above both thresholds takes the raw prediction (clamped).
	state := []float64{45, 45}
	action := []float64{0.5, 0.5}
	raw := m.Predict(state, action)
	refined := r.Predict(state, action)
	for j := range raw {
		want := raw[j]
		if want < 0 {
			want = 0
		}
		if math.Abs(refined[j]-want) > 1e-12 {
			t.Fatalf("above-threshold dim %d: refined %g != clamped raw %g", j, refined[j], want)
		}
	}
}

func TestRefinerBoundaryDimensionUsesLending(t *testing.T) {
	d := linearDynamics(1000, 2, 18)
	m, _ := New(Config{StateDim: 2, ActionDim: 2, Seed: 19})
	if _, err := m.Fit(d, 5); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	r, err := NewRefiner(m, d, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Dimension 0 at the boundary, dimension 1 high: dim 1 must equal the
	// raw prediction, and dim 0 must be non-negative.
	state := []float64{0, 45}
	action := []float64{0.5, 0.5}
	raw := m.Predict(state, action)
	refined := r.Predict(state, action)
	if refined[0] < 0 {
		t.Fatalf("refined boundary dim is negative: %g", refined[0])
	}
	wantDim1 := raw[1]
	if wantDim1 < 0 {
		wantDim1 = 0
	}
	if math.Abs(refined[1]-wantDim1) > 1e-12 {
		t.Fatalf("non-boundary dim disturbed: refined %g raw %g", refined[1], wantDim1)
	}
}

// Property: refined predictions are always elementwise non-negative.
func TestRefinerNonNegativeProperty(t *testing.T) {
	d := linearDynamics(500, 2, 21)
	m, _ := New(Config{StateDim: 2, ActionDim: 2, Seed: 22})
	if _, err := m.Fit(d, 3); err != nil {
		t.Fatal(err)
	}
	refRng := rand.New(rand.NewSource(23))
	r, err := NewRefiner(m, d, 20, refRng)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		state := []float64{rng.Float64() * 60, rng.Float64() * 60}
		action := []float64{rng.Float64(), rng.Float64()}
		for _, v := range r.Predict(state, action) {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRolloutShapesAndClamping(t *testing.T) {
	d := linearDynamics(500, 2, 24)
	m, _ := New(Config{StateDim: 2, ActionDim: 2, Seed: 25})
	if _, err := m.Fit(d, 3); err != nil {
		t.Fatal(err)
	}
	actions := make([][]float64, 7)
	for i := range actions {
		actions[i] = []float64{0.5, 0.5}
	}
	traj := Rollout(m, []float64{10, 10}, actions)
	if len(traj) != 7 {
		t.Fatalf("trajectory length %d, want 7", len(traj))
	}
	for _, s := range traj {
		if len(s) != 2 {
			t.Fatalf("state width %d", len(s))
		}
		for _, v := range s {
			if v < 0 {
				t.Fatalf("rollout produced negative WIP: %v", s)
			}
		}
	}
}

func TestSyntheticEnvLifecycle(t *testing.T) {
	d := linearDynamics(500, 2, 26)
	m, _ := New(Config{StateDim: 2, ActionDim: 2, Seed: 27})
	if _, err := m.Fit(d, 3); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(28))
	se, err := NewSyntheticEnv(m, d, 14, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if se.StateDim() != 2 || se.ActionDim() != 2 {
		t.Fatal("synthetic dims wrong")
	}
	s0 := se.Reset()
	if len(s0) != 2 {
		t.Fatalf("reset state %v", s0)
	}
	var done bool
	steps := 0
	var next []float64
	var reward float64
	for !done {
		next, reward, done = se.Step([]float64{0.5, 0.5})
		steps++
		if steps > 5 {
			t.Fatal("done never became true at horizon")
		}
		if math.Abs(reward-RewardOf(next)) > 1e-12 {
			t.Fatal("synthetic reward != Eq. 1 of predicted state")
		}
	}
	if steps != 5 {
		t.Fatalf("episode length %d, want 5", steps)
	}
	// Reset starts a fresh episode.
	se.Reset()
	_, _, done = se.Step([]float64{1, 0})
	if done {
		t.Fatal("fresh episode done after 1 step with horizon 5")
	}
}

func TestSyntheticEnvValidation(t *testing.T) {
	d := linearDynamics(10, 2, 29)
	m, _ := New(Config{StateDim: 2, ActionDim: 2, Seed: 30})
	_, _ = m.Fit(d, 1)
	rng := rand.New(rand.NewSource(31))
	if _, err := NewSyntheticEnv(nil, d, 14, 5, rng); err == nil {
		t.Fatal("expected error for nil predictor")
	}
	if _, err := NewSyntheticEnv(m, NewDataset(2, 2), 14, 5, rng); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	if _, err := NewSyntheticEnv(m, d, 0, 5, rng); err == nil {
		t.Fatal("expected error for zero budget")
	}
	if _, err := NewSyntheticEnv(m, d, 14, 0, rng); err == nil {
		t.Fatal("expected error for zero horizon")
	}
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	d := linearDynamics(50, 3, 60)
	path := filepath.Join(t.TempDir(), "data.json")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 50 || loaded.StateDim() != 3 || loaded.ActionDim() != 3 {
		t.Fatalf("round trip changed shape: %d/%d/%d", loaded.Len(), loaded.StateDim(), loaded.ActionDim())
	}
	for i := 0; i < d.Len(); i++ {
		a, b := d.At(i), loaded.At(i)
		for j := range a.State {
			if a.State[j] != b.State[j] || a.Next[j] != b.Next[j] || a.Action[j] != b.Action[j] {
				t.Fatalf("transition %d changed", i)
			}
		}
	}
	// A model can be fit directly from the loaded data.
	m, err := New(Config{StateDim: 3, ActionDim: 3, Hidden: []int{8}, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(loaded, 2); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDatasetRejectsCorrupt(t *testing.T) {
	var d Dataset
	cases := []string{
		`{broken`,
		`{"state_dim":0,"action_dim":1,"transitions":[]}`,
		`{"state_dim":2,"action_dim":2,"transitions":[{"State":[1],"Action":[1,1],"Next":[1,1]}]}`,
	}
	for i, blob := range cases {
		if err := d.UnmarshalJSON([]byte(blob)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if _, err := LoadDataset(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestFitZeroAlloc pins that a training epoch allocates nothing once the
// model's batch scratch is warm, at the paper's hidden sizes (§VI-A3: three
// layers of 20) over a 512-row dataset.
func TestFitZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := NewDataset(4, 4)
	s := make([]float64, 4)
	a := make([]float64, 4)
	for i := 0; i < 512; i++ {
		for j := range s {
			s[j] = rng.Float64() * 50
			a[j] = rng.Float64() / 4
		}
		d.Add(s, a, s)
	}
	m, err := New(Config{StateDim: 4, ActionDim: 4, Hidden: []int{20, 20, 20}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(d, 1); err != nil { // warm up
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { m.Fit(d, 1) }); allocs != 0 {
		t.Fatalf("Model.Fit: %v allocs/run, want 0", allocs)
	}
}
