package rl

import (
	"encoding/json"
	"math/rand"
	"testing"

	"miras/internal/nn"
)

// FuzzPolicySnapshotDecode hammers the policy-snapshot codec — the input
// surface of `miras serve`'s policy-attach endpoint and of snapshot files
// on disk. Decoding + validation must never panic; a snapshot that passes
// Validate must run inference without panicking and emit a finite simplex.
func FuzzPolicySnapshotDecode(f *testing.F) {
	d, err := NewDDPG(Config{StateDim: 3, ActionDim: 3, Hidden: []int{8, 8}})
	if err != nil {
		f.Fatal(err)
	}
	fillReplay(d, rand.New(rand.NewSource(11)), 30)
	d.Update()
	good, err := json.Marshal(d.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"actor":null,"norm_count":0,"norm_mean":[],"norm_m2":[]}`))
	f.Add([]byte(`{"actor":{"aux_layer":-1,"layers":[{"rows":2,"cols":2,"weights":[1,0,0,1],"bias":[0,0],"activation":"softmax"}]},"norm_count":3,"norm_mean":[0.5,0.5],"norm_m2":[1,1]}`))
	f.Add([]byte(`{"actor":{"aux_layer":-1,"layers":[{"rows":2,"cols":2,"weights":[1,0,0,1],"bias":[0,0],"activation":"softmax"}]},"norm_count":3,"norm_mean":[0.5],"norm_m2":[1,1]}`))
	f.Add([]byte(`{"actor":{"aux_layer":-1,"layers":[{"rows":2,"cols":2,"weights":[1,0,0,1],"bias":[0,0],"activation":"softmax"}]},"norm_count":-1,"norm_mean":[0.5,0.5],"norm_m2":[-4,1]}`))
	f.Add([]byte(`{"actor":{"aux_layer":0,"aux_dim":1,"layers":[{"rows":1,"cols":2,"weights":[1,1],"bias":[0],"activation":"softmax"}]},"norm_count":0,"norm_mean":[1],"norm_m2":[1]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s PolicySnapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		if err := s.Validate(); err != nil {
			return // rejected by validation: also fine
		}
		state := make([]float64, s.Actor.InDim())
		for i := range state {
			state[i] = float64(i)
		}
		a := s.Act(state)
		var sum float64
		for _, v := range a {
			if v < 0 || v != v {
				t.Fatalf("validated snapshot emitted invalid action %v\ninput: %q", a, data)
			}
			sum += v
		}
		_ = sum // softmax output sums to ~1; exact bound not asserted on arbitrary weights
	})
}

// TestSnapshotValidateRejectsAux pins the aux-input rejection: an actor
// with an auxiliary layer would panic inside Act (nil aux), so Validate
// must refuse it.
func TestSnapshotValidateRejectsAux(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewNetwork(nn.Config{Sizes: []int{2, 3, 1}, AuxLayer: 1, AuxDim: 2}, rng)
	s := &PolicySnapshot{Actor: net, NormMean: []float64{0, 0}, NormM2: []float64{1, 1}}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted an actor with an auxiliary input")
	}
}
