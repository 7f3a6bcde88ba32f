package rl

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"miras/internal/mat"
)

func trainedAgentForSnapshot(t *testing.T) *DDPG {
	t.Helper()
	d, err := NewDDPG(Config{StateDim: 3, ActionDim: 3, Hidden: []int{12, 12}, BatchSize: 8, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 50; i++ {
		s := []float64{rng.Float64() * 100, rng.Float64() * 10, rng.Float64()}
		d.Observe(Experience{State: s, Action: d.Act(s), Next: s, Reward: -rng.Float64()})
		d.Update()
	}
	return d
}

func TestSnapshotActMatchesLiveAgent(t *testing.T) {
	d := trainedAgentForSnapshot(t)
	snap := d.Snapshot()
	states := [][]float64{
		{0, 0, 0},
		{50, 5, 0.5},
		{1000, 100, 10},
	}
	for _, s := range states {
		live := d.Act(s)
		frozen := snap.Act(s)
		for i := range live {
			if live[i] != frozen[i] {
				t.Fatalf("snapshot diverges from live agent at %v: %v vs %v", s, frozen, live)
			}
		}
	}
}

func TestSnapshotIsFrozen(t *testing.T) {
	d := trainedAgentForSnapshot(t)
	snap := d.Snapshot()
	before := snap.Act([]float64{10, 10, 10})
	// Further training must not affect the snapshot.
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 30; i++ {
		s := []float64{rng.Float64() * 100, rng.Float64(), rng.Float64()}
		d.Observe(Experience{State: s, Action: d.Act(s), Next: s, Reward: -1})
		d.Update()
	}
	after := snap.Act([]float64{10, 10, 10})
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("snapshot changed when the live agent trained")
		}
	}
}

func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	d := trainedAgentForSnapshot(t)
	snap := d.Snapshot()
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicySnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	s := []float64{42, 7, 0.1}
	a, b := snap.Act(s), loaded.Act(s)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round-trip mismatch: %v vs %v", a, b)
		}
	}
}

func TestLoadPolicySnapshotRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadPolicySnapshot(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
	bad := filepath.Join(dir, "bad.json")
	write := func(content string) {
		t.Helper()
		if err := writeFile(bad, content); err != nil {
			t.Fatal(err)
		}
	}
	write("{not json")
	if _, err := LoadPolicySnapshot(bad); err == nil {
		t.Fatal("expected error for invalid JSON")
	}
	write(`{"actor":null}`)
	if _, err := LoadPolicySnapshot(bad); err == nil {
		t.Fatal("expected error for missing actor")
	}
	// Normaliser width mismatch.
	d := trainedAgentForSnapshot(t)
	snap := d.Snapshot()
	snap.NormMean = snap.NormMean[:1]
	good := filepath.Join(dir, "mismatch.json")
	if err := snap.Save(good); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPolicySnapshot(good); err == nil {
		t.Fatal("expected error for normaliser width mismatch")
	}
}

func TestSnapshotActPanicsOnWrongWidth(t *testing.T) {
	d := trainedAgentForSnapshot(t)
	snap := d.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	snap.Act([]float64{1})
}

// writeFile is a test helper around os.WriteFile.
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestActToMatchesActZeroAlloc checks the scratch-based serving path is
// bit-identical to Act and allocation-free once the scratch is warm.
func TestActToMatchesActZeroAlloc(t *testing.T) {
	d := trainedAgentForSnapshot(t)
	snap := d.Snapshot()
	sc := snap.NewScratch()
	states := [][]float64{
		{0, 0, 0},
		{50, 5, 0.5},
		{1000, 100, 10},
	}
	for _, s := range states {
		want := snap.Act(s)
		got := snap.ActTo(sc, s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ActTo diverges from Act at %v: %v vs %v", s, got, want)
			}
		}
	}
	state := states[1]
	if allocs := testing.AllocsPerRun(100, func() { snap.ActTo(sc, state) }); allocs != 0 {
		t.Fatalf("ActTo: %v allocs/run, want 0", allocs)
	}
}

// TestScratchesShareOnePacking makes the first scratches of a snapshot on
// two goroutines at once and runs ActTo on each: both must equal Act, and
// every scratch — those two and a later one — must multiply through the
// snapshot's one set of packed panels. Under -race it also shows the
// packing is race-free.
func TestScratchesShareOnePacking(t *testing.T) {
	d := trainedAgentForSnapshot(t)
	ref, snap := d.Snapshot(), d.Snapshot()
	states := [][]float64{{0, 0, 0}, {50, 5, 0.5}, {1000, 100, 10}}
	want := make([][]float64, len(states))
	for i, s := range states {
		want[i] = ref.Act(s)
	}
	scratches := make([]*PolicyScratch, 2)
	errs := make(chan error, len(scratches))
	var wg sync.WaitGroup
	for g := range scratches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := snap.NewScratch()
			scratches[g] = sc
			for round := 0; round < 50; round++ {
				for i, s := range states {
					if got := snap.ActTo(sc, s); !slices.Equal(got, want[i]) {
						errs <- fmt.Errorf("goroutine %d: ActTo(%v) = %v, Act %v", g, s, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if lanes := mat.PackVecPanels(snap.Actor.Layers[0].W) != nil; lanes != (snap.panels != nil) {
		t.Fatalf("lane kernels on: %v, but snapshot panels packed: %v", lanes, snap.panels != nil)
	}
	for _, sc := range append(scratches, snap.NewScratch()) {
		if got := sc.cache.Panels(); len(got) != len(snap.panels) || (got != nil && &got[0] != &snap.panels[0]) {
			t.Fatal("a scratch multiplies through panels other than the snapshot's one set")
		}
	}
}

// BenchmarkSnapshotActTo times one served decision's forward pass on an
// untrained three-hidden-layer actor: the benchmark's serving width (64)
// and the paper's MSD (256) and LIGO (512) widths, with each ensemble's
// service count as the state and action width.
func BenchmarkSnapshotActTo(b *testing.B) {
	for _, c := range []struct{ width, services int }{{64, 4}, {256, 4}, {512, 9}} {
		b.Run(fmt.Sprintf("%dwide", c.width), func(b *testing.B) {
			d, err := NewDDPG(Config{
				StateDim: c.services, ActionDim: c.services,
				Hidden: []int{c.width, c.width, c.width}, ReplayCapacity: 1, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			snap := d.Snapshot()
			sc := snap.NewScratch()
			state := make([]float64, c.services)
			for i := range state {
				state[i] = float64(3 * i)
			}
			for b.Loop() {
				snap.ActTo(sc, state)
			}
		})
	}
}
