package cluster

import (
	"slices"
	"testing"
	"testing/quick"

	"miras/internal/sim"
)

// TestRingMatchesSliceModel runs random push-back / push-front / pop-front /
// remove-at / clear sequences on the ring and on a plain slice. Pushes
// outnumber removals, so the ring wraps and grows through several doublings,
// often while wrapped, and is cleared at assorted sizes; after each op the
// contents must match the model in order (read through at), and every slot
// outside the live window must be zero (nothing pinned).
func TestRingMatchesSliceModel(t *testing.T) {
	insts := make([]*instance, 4)
	for i := range insts {
		insts[i] = &instance{wf: i}
	}
	f := func(seed int64) bool {
		rng := sim.NewStreams(seed).Stream("ring")
		var r ring[taskRequest]
		var model []taskRequest
		for op := 0; op < 2000; op++ {
			req := taskRequest{inst: insts[rng.Intn(len(insts))], node: op}
			switch k := rng.Intn(100); {
			case k < 45:
				r.pushBack(req)
				model = append(model, req)
			case k < 60:
				r.pushFront(req)
				model = append([]taskRequest{req}, model...)
			case k < 99:
				if len(model) == 0 {
					continue
				}
				i := 0
				if k >= 80 {
					i = rng.Intn(len(model))
				}
				if got := r.removeAt(i); got != model[i] {
					t.Logf("op %d: removeAt(%d) %+v, model %+v", op, i, got, model[i])
					return false
				}
				model = slices.Delete(model, i, i+1)
			default:
				r.clear()
				model = model[:0]
			}
			if !ringMatches(&r, model) {
				t.Logf("seed %d op %d: ring %+v diverged from model %v", seed, op, r, model)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// ringMatches reports whether r holds exactly model, front first, with every
// other slot zeroed.
func ringMatches(r *ring[taskRequest], model []taskRequest) bool {
	if r.len() != len(model) || len(r.buf)&(len(r.buf)-1) != 0 {
		return false
	}
	for i, want := range model {
		if r.at(i) != want {
			return false
		}
	}
	for i := range r.buf {
		if (i-r.head)&(len(r.buf)-1) >= len(model) && r.buf[i] != (taskRequest{}) {
			return false
		}
	}
	return true
}
