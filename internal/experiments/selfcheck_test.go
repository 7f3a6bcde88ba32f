package experiments

import "testing"

func TestSelfCheckPasses(t *testing.T) {
	s := microSetup(t, "msd")
	res, err := SelfCheck(s, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 6 || res.Digest == 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestSelfCheckPassesUnderFaults(t *testing.T) {
	s := microSetup(t, "msd")
	for _, regime := range ChaosRegimes(s) {
		res, err := SelfCheck(s, 6, &regime.Plan)
		if err != nil {
			t.Fatalf("regime %s: %v", regime.Name, err)
		}
		if res.Digest == 0 {
			t.Fatalf("regime %s: zero digest", regime.Name)
		}
	}
}

// TestSelfCheckDigestIsSeedSensitive confirms the digest actually captures
// the trajectory: a different seed must produce a different digest, or the
// self-check would pass vacuously.
func TestSelfCheckDigestIsSeedSensitive(t *testing.T) {
	s := microSetup(t, "msd")
	a, err := SelfCheck(s, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Seed += 1000
	b, err := SelfCheck(s, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatalf("digest %#016x identical across seeds — self-check is blind", a.Digest)
	}
}

func TestUniformAllocation(t *testing.T) {
	m := uniformAllocation(4, 14)
	if got := m[0] + m[1] + m[2] + m[3]; got != 14 {
		t.Fatalf("allocation sums to %d, want 14", got)
	}
	for j, v := range m {
		if v < 14/4 || v > 14/4+1 {
			t.Fatalf("allocation %v not uniform at %d", m, j)
		}
	}
}
