// Package envmodel implements the paper's performance model of the
// microservice environment (§IV-C): a neural network trained on observed
// transitions (s(k), a(k)) → s(k+1), the Lend–Giveback model refinement of
// Algorithm 1 that fixes the model's behaviour near the WIP boundary, and a
// synthetic environment that replays the model for policy training.
package envmodel

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"miras/internal/mat"
)

// Transition is one recorded interaction with the real environment:
// state s(k), action a(k) (as budget fractions m(k)/C), and next state
// s(k+1).
type Transition struct {
	State  []float64
	Action []float64
	Next   []float64
}

// Dataset is the collected training set D of §IV-C. It is append-only;
// the iterative Algorithm 2 keeps adding freshly collected transitions.
type Dataset struct {
	stateDim, actionDim int
	transitions         []Transition
}

// NewDataset returns an empty dataset for the given dimensions.
func NewDataset(stateDim, actionDim int) *Dataset {
	if stateDim <= 0 || actionDim <= 0 {
		panic(fmt.Sprintf("envmodel: invalid dims state=%d action=%d", stateDim, actionDim))
	}
	return &Dataset{stateDim: stateDim, actionDim: actionDim}
}

// StateDim returns the state dimension.
func (d *Dataset) StateDim() int { return d.stateDim }

// ActionDim returns the action dimension.
func (d *Dataset) ActionDim() int { return d.actionDim }

// Add appends one transition, copying the slices.
func (d *Dataset) Add(state, action, next []float64) {
	if len(state) != d.stateDim || len(next) != d.stateDim || len(action) != d.actionDim {
		panic(fmt.Sprintf("envmodel: transition dims (%d,%d,%d) != (%d,%d,%d)",
			len(state), len(action), len(next), d.stateDim, d.actionDim, d.stateDim))
	}
	d.transitions = append(d.transitions, Transition{
		State:  mat.VecClone(state),
		Action: mat.VecClone(action),
		Next:   mat.VecClone(next),
	})
}

// Len returns the number of stored transitions.
func (d *Dataset) Len() int { return len(d.transitions) }

// At returns the i-th transition (not a copy; callers must not mutate).
func (d *Dataset) At(i int) Transition { return d.transitions[i] }

// SampleBatch fills batch with transitions drawn uniformly with
// replacement.
func (d *Dataset) SampleBatch(rng *rand.Rand, batch []Transition) {
	if d.Len() == 0 {
		panic("envmodel: sampling from empty dataset")
	}
	for i := range batch {
		batch[i] = d.transitions[rng.Intn(len(d.transitions))]
	}
}

// SampleState returns the state of a uniformly random stored transition;
// the synthetic environment uses it to start model rollouts from visited
// states.
func (d *Dataset) SampleState(rng *rand.Rand) []float64 {
	if d.Len() == 0 {
		panic("envmodel: sampling state from empty dataset")
	}
	return mat.VecClone(d.transitions[rng.Intn(len(d.transitions))].State)
}

// Split partitions the dataset into train/test at the given test fraction,
// shuffling with rng. Used by the Fig. 5 model-accuracy evaluation (the
// paper holds out 100 test points).
func (d *Dataset) Split(testFrac float64, rng *rand.Rand) (train, test *Dataset) {
	if testFrac < 0 || testFrac > 1 {
		panic(fmt.Sprintf("envmodel: bad test fraction %g", testFrac))
	}
	idx := rng.Perm(d.Len())
	nTest := int(float64(d.Len()) * testFrac)
	train = NewDataset(d.stateDim, d.actionDim)
	test = NewDataset(d.stateDim, d.actionDim)
	for i, k := range idx {
		t := d.transitions[k]
		if i < nTest {
			test.transitions = append(test.transitions, t)
		} else {
			train.transitions = append(train.transitions, t)
		}
	}
	return train, test
}

// StateColumn returns the j-th state coordinate across all transitions,
// used for the percentile thresholds of Algorithm 1.
func (d *Dataset) StateColumn(j int) []float64 {
	col := make([]float64, d.Len())
	for i, t := range d.transitions {
		col[i] = t.State[j]
	}
	return col
}

// Normalizer standardises vectors to zero mean and unit variance per
// coordinate. Neural network inputs and outputs are normalised because WIP
// coordinates span orders of magnitude between idle and burst conditions.
type Normalizer struct {
	Mean []float64
	Std  []float64
}

// sqrtOr1 is the standard deviation for variance v, or 1 where v is
// (near) zero, so a constant coordinate keeps Apply finite.
func sqrtOr1(v float64) float64 {
	const eps = 1e-8
	if v < eps {
		return 1
	}
	return math.Sqrt(v)
}

// Apply writes (x − mean) / std into dst (dst may alias x).
func (n *Normalizer) Apply(dst, x []float64) {
	for j := range x {
		dst[j] = (x[j] - n.Mean[j]) / n.Std[j]
	}
}

// Invert writes x·std + mean into dst (dst may alias x).
func (n *Normalizer) Invert(dst, x []float64) {
	for j := range x {
		dst[j] = x[j]*n.Std[j] + n.Mean[j]
	}
}

// Dim returns the normalizer's coordinate count.
func (n *Normalizer) Dim() int { return len(n.Mean) }

// datasetJSON is the serialised form of collected transitions, so a
// training checkpoint can resume model fitting without re-running the
// (slow, in the paper's world) environment interactions.
type datasetJSON struct {
	StateDim    int          `json:"state_dim"`
	ActionDim   int          `json:"action_dim"`
	Transitions []Transition `json:"transitions"`
}

// MarshalJSON implements json.Marshaler.
func (d *Dataset) MarshalJSON() ([]byte, error) {
	return json.Marshal(datasetJSON{
		StateDim:    d.stateDim,
		ActionDim:   d.actionDim,
		Transitions: d.transitions,
	})
}

// UnmarshalJSON implements json.Unmarshaler, validating every transition's
// dimensions.
func (d *Dataset) UnmarshalJSON(data []byte) error {
	var in datasetJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("envmodel: decode dataset: %w", err)
	}
	if in.StateDim <= 0 || in.ActionDim <= 0 {
		return fmt.Errorf("envmodel: dataset dims (%d,%d) invalid", in.StateDim, in.ActionDim)
	}
	for i, t := range in.Transitions {
		if len(t.State) != in.StateDim || len(t.Next) != in.StateDim || len(t.Action) != in.ActionDim {
			return fmt.Errorf("envmodel: transition %d has dims (%d,%d,%d), want (%d,%d,%d)",
				i, len(t.State), len(t.Action), len(t.Next), in.StateDim, in.ActionDim, in.StateDim)
		}
	}
	d.stateDim = in.StateDim
	d.actionDim = in.ActionDim
	d.transitions = in.Transitions
	return nil
}
