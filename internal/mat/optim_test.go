package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzUpdateLanes is the differential target for the Adam and soft-update
// lanes: the length (0–32, so every residue mod 4), the Adam step count
// (1–10⁴, which sets the bias corrections), then the learning rate, τ and
// the entries of w, m, v, g and src as raw float64 bits — so signed zeros,
// subnormals, infinities, NaNs and v = 0 all occur — are decoded from the
// fuzz input, and AdamStep and SoftUpdate must equal their pure-Go loops
// bit for bit (NaNs equal to any NaN).
func FuzzUpdateLanes(f *testing.F) {
	requireAVX2(f)
	f.Add([]byte{8, 1, 0})
	f.Add([]byte{13, 0x10, 0x27})
	f.Add([]byte{32, 0xff, 0xff})
	f.Add([]byte{7, 3, 0, 0xfc, 0xa9, 0xf1, 0xd2, 0x4d, 0x62, 0x50, 0x3f, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x74, 0x3f,
		0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{5, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg := updateMismatch(decodeUpdateCase(data)); msg != "" {
			t.Fatalf("%s\ninput: %v", msg, data)
		}
	})
}

// updateCase is one input to the update lanes: Adam's scalars, τ, and the
// vectors both updates read.
type updateCase struct {
	p               AdamParams
	tau             float64
	w, m, v, g, src []float64
}

// decodeUpdateCase builds one case from fuzz bytes: a length byte, a
// little-endian uint16 step count, then eight-byte little-endian float64
// bit patterns overwriting, in order, the learning rate, τ and the entries
// of a fixed-seed random w, m, v (non-negative, a quarter of them 0), g and
// src.
func decodeUpdateCase(data []byte) updateCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return v
	}
	n := int(next()) % 33
	step := 1 + int(uint16(next())|uint16(next())<<8)%10000
	rng := rand.New(rand.NewSource(1))
	vec := func() []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x
	}
	c := updateCase{tau: 0.005, w: vec(), m: vec(), v: vec(), g: vec(), src: vec()}
	for i, x := range c.v {
		c.v[i] = math.Abs(x)
		if rng.Intn(4) == 0 {
			c.v[i] = 0
		}
	}
	c.p = AdamParams{Beta1: 0.9, Beta2: 0.999, LR: 1e-3, Eps: 1e-8}
	c.p.Corr1 = 1 - math.Pow(c.p.Beta1, float64(step))
	c.p.Corr2 = 1 - math.Pow(c.p.Beta2, float64(step))
	scalars := []*float64{&c.p.LR, &c.tau}
	for _, vs := range [][]float64{c.w, c.m, c.v, c.g, c.src} {
		for i := range vs {
			scalars = append(scalars, &vs[i])
		}
	}
	for _, x := range scalars {
		if len(data) < 8 {
			break
		}
		*x = math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	return c
}

// updateMismatch runs AdamStep and SoftUpdate on copies of c with the lane
// kernels on and off and describes the first entry whose bits differ (""
// if none).
func updateMismatch(c updateCase) string {
	run := func() (w, m, v, soft []float64) {
		w, m, v, soft = VecClone(c.w), VecClone(c.m), VecClone(c.v), VecClone(c.w)
		AdamStep(w, m, v, c.g, &c.p)
		SoftUpdate(soft, c.src, c.tau)
		return w, m, v, soft
	}
	var lanes, generic [4][]float64
	avx2Set.use(func() { lanes[0], lanes[1], lanes[2], lanes[3] = run() })
	goSet.use(func() { generic[0], generic[1], generic[2], generic[3] = run() })
	for k, name := range []string{"AdamStep w", "AdamStep m", "AdamStep v", "SoftUpdate w"} {
		for i, x := range lanes[k] {
			if y := generic[k][i]; !sameBits(x, y) {
				return fmt.Sprintf("%s, length %d: entry %d lanes %v (%#x) != pure Go %v (%#x)",
					name, len(c.g), i, x, math.Float64bits(x), y, math.Float64bits(y))
			}
		}
	}
	return ""
}
