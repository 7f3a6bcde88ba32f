package rl

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func testConfig() Config {
	return Config{
		StateDim:  3,
		ActionDim: 3,
		Hidden:    []int{8, 8},
		BatchSize: 8,
	}
}

// fillReplay feeds n synthetic transitions to the agent through Observe,
// using a deterministic generator separate from the agent's own stream.
func fillReplay(d *DDPG, rng *rand.Rand, n int) {
	dim, adim := d.cfg.StateDim, d.cfg.ActionDim
	for i := 0; i < n; i++ {
		e := Experience{
			State:  make([]float64, dim),
			Action: make([]float64, adim),
			Next:   make([]float64, dim),
			Reward: rng.NormFloat64(),
		}
		for j := 0; j < dim; j++ {
			e.State[j] = rng.Float64() * 10
			e.Next[j] = rng.Float64() * 10
		}
		var sum float64
		for j := 0; j < adim; j++ {
			e.Action[j] = rng.Float64()
			sum += e.Action[j]
		}
		for j := 0; j < adim; j++ {
			e.Action[j] /= sum
		}
		d.Observe(e)
	}
}

// TestAgentStateRoundTrip checkpoints an agent mid-training through a JSON
// round trip (exactly what the checkpoint store does), restores it into a
// freshly constructed agent, and verifies both produce bit-identical
// actions and update statistics afterwards.
func TestAgentStateRoundTrip(t *testing.T) {
	cfg := testConfig()
	a, err := NewDDPG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed := rand.New(rand.NewSource(77))
	fillReplay(a, feed, 40)
	a.BeginEpisode()
	for i := 0; i < 5; i++ {
		a.Update()
	}

	blob, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	var st AgentState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	b, err := NewDDPG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(&st); err != nil {
		t.Fatal(err)
	}

	// Continue both: explore, observe, update — everything must match.
	feedA := rand.New(rand.NewSource(88))
	feedB := rand.New(rand.NewSource(88))
	for i := 0; i < 3; i++ {
		a.BeginEpisode()
		b.BeginEpisode()
		fillReplay(a, feedA, 10)
		fillReplay(b, feedB, 10)
		la, qa := a.Update()
		lb, qb := b.Update()
		if la != lb || qa != qb {
			t.Fatalf("round %d: update stats diverged: (%g,%g) != (%g,%g)", i, la, qa, lb, qb)
		}
	}
	state := []float64{1.5, 0.25, 7}
	actA, actB := a.Act(state), b.Act(state)
	for i := range actA {
		if actA[i] != actB[i] {
			t.Fatalf("action diverged at %d: %g != %g", i, actA[i], actB[i])
		}
	}
	explA, explB := a.ActExplore(state), b.ActExplore(state)
	for i := range explA {
		if explA[i] != explB[i] {
			t.Fatalf("exploratory action diverged at %d: %g != %g", i, explA[i], explB[i])
		}
	}
}

// TestLogRowsFollowReplay checks that each replay slot's log-compressed
// rows are logCompress of the experience now in that slot, after the ring
// has wrapped, and that Restore rebuilds the same rows from a checkpoint,
// which carries only the raw experiences.
func TestLogRowsFollowReplay(t *testing.T) {
	cfg := testConfig()
	cfg.ReplayCapacity = 16
	a, err := NewDDPG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(a, rand.New(rand.NewSource(5)), 41)
	want := make([]float64, cfg.StateDim)
	for slot, e := range a.replay.buf {
		for _, row := range []struct {
			got, raw []float64
		}{{a.logState(slot), e.State}, {a.logNext(slot), e.Next}} {
			logCompress(want, row.raw)
			for i := range want {
				if math.Float64bits(row.got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("slot %d: compressed row %v, want %v", slot, row.got, want)
				}
			}
		}
	}
	b, err := NewDDPG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(a.State()); err != nil {
		t.Fatal(err)
	}
	if len(b.logRows) != len(a.logRows) {
		t.Fatalf("restored %d compressed entries, want %d", len(b.logRows), len(a.logRows))
	}
	for i, v := range a.logRows {
		if math.Float64bits(b.logRows[i]) != math.Float64bits(v) {
			t.Fatalf("restored compressed entry %d = %v, want %v", i, b.logRows[i], v)
		}
	}
}

func TestAgentRestoreRejectsCorruptState(t *testing.T) {
	cfg := testConfig()
	a, err := NewDDPG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(a, rand.New(rand.NewSource(5)), 20)
	a.Update()

	cases := map[string]func(s *AgentState){
		"nil actor":     func(s *AgentState) { s.Actor = nil },
		"nan weight":    func(s *AgentState) { s.Critic.Layers[0].W.Data[0] = math.NaN() },
		"wrong shape":   func(s *AgentState) { s.Actor.Layers[0].B = s.Actor.Layers[0].B[:1] },
		"norm width":    func(s *AgentState) { s.NormMean = s.NormMean[:1] },
		"negative m2":   func(s *AgentState) { s.NormM2[0] = -1 },
		"bad sigma":     func(s *AgentState) { s.NoiseSigma = -0.5 },
		"replay dims":   func(s *AgentState) { s.Replay[0].Action = s.Replay[0].Action[:1] },
		"replay cursor": func(s *AgentState) { s.ReplayNext = -3 },
		"moment layers": func(s *AgentState) { s.ActorOpt.MW = s.ActorOpt.MW[:1] },
	}
	for name, corrupt := range cases {
		st := a.State()
		corrupt(st)
		b, err := NewDDPG(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Restore(st); err == nil {
			t.Errorf("%s: Restore accepted corrupt state", name)
		}
	}
}

func TestCheckHealth(t *testing.T) {
	a, err := NewDDPG(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckHealth(0); err != nil {
		t.Fatalf("fresh agent unhealthy: %v", err)
	}
	fillReplay(a, rand.New(rand.NewSource(6)), 20)
	a.Update()
	if err := a.CheckHealth(1e6); err != nil {
		t.Fatalf("trained agent unhealthy: %v", err)
	}

	// Poison the critic: NaN weights must be detected.
	healthy := a.State()
	a.Critic().Layers[0].W.Data[0] = math.NaN()
	if err := a.CheckHealth(0); err == nil {
		t.Fatal("NaN critic weight not detected")
	}
	// Roll back to the healthy snapshot: the probe passes again.
	if err := a.Restore(healthy); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckHealth(0); err != nil {
		t.Fatalf("agent unhealthy after rollback: %v", err)
	}

	// Q blow-up beyond the configured bound.
	a.lastMeanQ = 1e9
	if err := a.CheckHealth(100); err == nil {
		t.Fatal("Q blow-up not detected")
	}
	if err := a.CheckHealth(0); err != nil {
		t.Fatalf("disabled bound still flagged: %v", err)
	}
	a.lastCriticLoss = math.Inf(1)
	if err := a.CheckHealth(0); err == nil {
		t.Fatal("Inf critic loss not detected")
	}
}
