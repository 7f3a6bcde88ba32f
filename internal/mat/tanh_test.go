package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// withTanhLanes runs fn with the lane tanh switched on or off, restoring
// the start-up choice afterwards.
func withTanhLanes(on bool, fn func()) {
	defer func(prev bool) { useTanhLanes = prev }(useTanhLanes)
	useTanhLanes = on
	fn()
}

// requireTanhLanes skips unless the lane tanh was chosen at start-up, and
// fails if the probe refused it although nothing explains that: on a CPU
// with the lanes and math.Exp on its FMA path, a refusal means tanhLanes
// disagrees with math.Tanh on a probe input.
func requireTanhLanes(tb testing.TB) {
	tb.Helper()
	if !useTanhLanes {
		if haveTanhLanes && expOnFMAPath() {
			tb.Fatal("the start-up probe refused the lane tanh although math.Exp takes its FMA path")
		}
		tb.Skip("lane tanh not chosen at start-up: no AVX2+FMA, math.Exp off its FMA path, or a non-amd64 or purego build")
	}
}

// forEachTanhSet runs fn as one subtest per kernel set — the ZMM lanes,
// the YMM lanes and math.Tanh — skipping the lane sets unless the lane
// tanh was chosen at start-up.
func forEachTanhSet(t *testing.T, fn func(t *testing.T, set laneSet)) {
	forEachSet(t, func(t *testing.T, set laneSet) {
		if set.avx2 {
			requireTanhLanes(t)
		}
		fn(t, set)
	})
}

// expOnFMAPath reports whether math.Exp takes its FMA path in this process:
// 0x404759a28795660f is math.Exp(3.84375) there, and the non-FMA path
// rounds it one ulp higher.
func expOnFMAPath() bool {
	return math.Float64bits(math.Exp(3.84375)) == 0x404759a28795660f
}

// tanhMismatch runs TanhTo with the kernels of set over pre and b, into a
// fresh slice and in place, and describes the first element that differs
// from math.Tanh(pre[i]+b[i]) ("" if none).
func tanhMismatch(set laneSet, pre, b []float64) string {
	out := make([]float64, len(pre))
	inPlace := append([]float64(nil), pre...)
	set.use(func() {
		withTanhLanes(set.avx2, func() {
			TanhTo(out, pre, b)
			TanhTo(inPlace, inPlace, b)
		})
	})
	for i, x := range pre {
		want := math.Tanh(x + b[i])
		for _, got := range []float64{out[i], inPlace[i]} {
			if !sameBits(got, want) {
				return fmt.Sprintf("%s, n=%d, element %d: TanhTo(%v [%#x] + %v [%#x]) = %v [%#x], math.Tanh = %v [%#x]",
					set.name, len(pre), i, x, math.Float64bits(x), b[i], math.Float64bits(b[i]),
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	return ""
}

// zeroBias returns n biases of −0, under which TanhTo computes math.Tanh
// of pre itself: x + (−0) is x for every x, −0 included.
func zeroBias(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Copysign(0, -1)
	}
	return b
}

// ulpsAround returns x and its k nearest neighbours on each side.
func ulpsAround(x float64, k int) []float64 {
	vs := []float64{x}
	lo, hi := x, x
	for range k {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		vs = append(vs, lo, hi)
	}
	return vs
}

// TestTanhLanesMatchMathTanh referees TanhTo on the ZMM lanes, the YMM
// lanes and math.Tanh against math.Tanh(pre+b) bit for bit: a dense sweep
// of [−50, 50] at 1/4096 under zero and random biases, the branch edges
// 0.625 and 0.5·MAXLOG to ±4 ulps on both signs, 32 768 random inputs
// (half raw bit patterns), signed zeros — −0 under a +0 and a −0 bias —,
// subnormals, infinities and NaNs, at every length mod 8 (tails of 1–7
// included), written to a fresh slice and in place.
func TestTanhLanesMatchMathTanh(t *testing.T) {
	forEachTanhSet(t, tanhMatchesMath)
}

func tanhMatchesMath(t *testing.T, set laneSet) {
	var sweep []float64
	for i := -50 * 4096; i <= 50*4096; i++ {
		sweep = append(sweep, float64(i)/4096)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1<<14; i++ {
		sweep = append(sweep, math.Float64frombits(rng.Uint64()), 8*rng.NormFloat64())
	}
	if msg := tanhMismatch(set, sweep, zeroBias(len(sweep))); msg != "" {
		t.Fatal(msg)
	}
	bias := make([]float64, len(sweep))
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	if msg := tanhMismatch(set, sweep, bias); msg != "" {
		t.Fatal(msg)
	}
	const maxLog = 8.8029691931113054295988e+01
	var edges []float64
	for _, e := range []float64{0.625, 0.5 * maxLog} {
		edges = append(edges, ulpsAround(e, 4)...)
		edges = append(edges, ulpsAround(-e, 4)...)
	}
	negZero := math.Copysign(0, -1)
	specials := []float64{0, negZero, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072009e-308, -1e-310, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8000000000001), math.MaxFloat64, -math.MaxFloat64, 1e-8, -3e-160}
	vals := append(edges, specials...)
	for n := 0; n <= len(vals); n++ {
		// Rotate so every value meets every lane position at some length.
		xs := append(append([]float64(nil), vals[n%len(vals):]...), vals[:n%len(vals)]...)[:n]
		if msg := tanhMismatch(set, xs, zeroBias(n)); msg != "" {
			t.Fatal(msg)
		}
	}
	// −0 inputs under +0 and −0 biases at every lane position and tail
	// length: −0 + +0 is +0, −0 + −0 stays −0, and tanh keeps the sign.
	for n := 1; n <= 17; n++ {
		pre, b := make([]float64, n), make([]float64, n)
		for i := range pre {
			pre[i] = negZero
			if (i+n)%2 == 0 {
				b[i] = negZero
			}
		}
		if msg := tanhMismatch(set, pre, b); msg != "" {
			t.Fatal(msg)
		}
	}
}

// TestTanhLanesFollowMathFMA runs this test binary again with
// GODEBUG=cpu.fma=off, under which math.Exp takes its non-FMA path and
// rounds some inputs differently: there the start-up probe must leave the
// lanes off, the lane kernel must really disagree with math.Tanh on the
// probe (so the probe has something to catch), and TanhTo must still equal
// math.Tanh.
func TestTanhLanesFollowMathFMA(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		if expOnFMAPath() {
			t.Skip("GODEBUG=cpu.fma=off has no effect: math.Exp still takes its FMA path (a GOAMD64=v3 build requires FMA)")
		}
		if useTanhLanes {
			t.Fatal("useTanhLanes is set although math.Exp is off its FMA path")
		}
		if haveTanhLanes && tanhLanesMatchMath() {
			t.Fatal("the lane kernel matches math.Tanh on every probe input: the probe cannot tell the FMA paths apart")
		}
		xs := append(append([]float64(nil), tanhProbe[:]...), -1.921875, 0.3, 2.5, -0.75, 5)
		out := make([]float64, len(xs))
		TanhTo(out, xs, zeroBias(len(xs)))
		for i, x := range xs {
			if want := math.Tanh(x); !sameBits(out[i], want) {
				t.Fatalf("TanhTo(%v) = %v, math.Tanh = %v", x, out[i], want)
			}
		}
		return
	}
	if !haveTanhLanes {
		t.Skip("lane tanh not available: no AVX2+FMA, or a non-amd64 or purego build")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTanhLanesFollowMathFMA$", "-test.v")
	godebug := "cpu.fma=off"
	if prev := os.Getenv("GODEBUG"); prev != "" {
		godebug = prev + "," + godebug
	}
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("under GODEBUG=%s: %v\n%s", godebug, err, out)
	}
	switch {
	case strings.Contains(string(out), "--- SKIP: TestTanhLanesFollowMathFMA"):
		t.Skipf("under GODEBUG=%s:\n%s", godebug, out)
	case !strings.Contains(string(out), "--- PASS: TestTanhLanesFollowMathFMA"):
		t.Fatalf("under GODEBUG=%s the test did not run:\n%s", godebug, out)
	}
}

// FuzzTanhLanes is the differential target for the lane tanh: the input is
// read as raw little-endian float64 bit patterns, alternately
// pre-activations and biases — so signed zeros, subnormals, infinities,
// NaNs and every branch edge can occur at any lane position, in either
// operand — and TanhTo on the ZMM lanes, the YMM lanes and math.Tanh, into
// a fresh slice and in place, must equal math.Tanh(pre+b) bit for bit
// (NaNs equal to any NaN).
func FuzzTanhLanes(f *testing.F) {
	f.Add(float64Bits(-1.921875, 0, 0.625, 0, math.Nextafter(0.625, 0), 0, 44.014845965556525, 0, 44.01484596555653, 0))
	f.Add(float64Bits(0, 0, math.Copysign(0, -1), 0, 5e-324, 0, math.Inf(-1), 0, math.NaN(), 0, 1e300, 0, -0.3, 0))
	f.Add(float64Bits(0.1, 0, 0.2, 0, 0.3, 0, 0.4, 0))
	f.Add(float64Bits(math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1), 0, 0.5, 0.125, -0.5, -0.25, 1, -0.375))
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := decodeFloat64s(data)
		pre, b := make([]float64, (len(vs)+1)/2), make([]float64, (len(vs)+1)/2)
		for i, v := range vs {
			if i%2 == 0 {
				pre[i/2] = v
			} else {
				b[i/2] = v
			}
		}
		forEachTanhSet(t, func(t *testing.T, set laneSet) {
			if msg := tanhMismatch(set, pre, b); msg != "" {
				t.Fatal(msg)
			}
		})
	})
}

// float64Bits encodes xs as raw little-endian float64 bit patterns, the
// fuzz inputs' layout.
func float64Bits(xs ...float64) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// decodeFloat64s reads data as raw little-endian float64 bit patterns,
// dropping a trailing partial one.
func decodeFloat64s(data []byte) []float64 {
	vs := make([]float64, len(data)/8)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return vs
}

// tanhGradLoop is the tanh gradient pass as a plain loop: the referee for
// TanhGradTo.
func tanhGradLoop(dPre, out, dOut, dB []float64) {
	for i := range dPre {
		dPre[i] = dOut[i] * (1 - out[i]*out[i])
		if dB != nil {
			dB[i] += dPre[i]
		}
	}
}

// tanhGradMismatch runs TanhGradTo with the kernels of set over out, dOut
// and a copy of dB — with dB, without it (nil), and in place (dPre being
// dOut) — and describes the first entry of dPre or dB that differs from
// tanhGradLoop's ("" if none).
func tanhGradMismatch(set laneSet, out, dOut, dB []float64) string {
	n := len(out)
	wantPre, wantB := make([]float64, n), append([]float64(nil), dB...)
	tanhGradLoop(wantPre, out, dOut, wantB)
	gotPre, gotB := make([]float64, n), append([]float64(nil), dB...)
	plainPre := make([]float64, n)
	inPlace, inPlaceB := append([]float64(nil), dOut...), append([]float64(nil), dB...)
	set.use(func() {
		TanhGradTo(gotPre, out, dOut, gotB)
		TanhGradTo(plainPre, out, dOut, nil)
		TanhGradTo(inPlace, out, inPlace, inPlaceB)
	})
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"dPre", gotPre, wantPre}, {"dB", gotB, wantB}, {"dPre without dB", plainPre, wantPre},
		{"dPre in place", inPlace, wantPre}, {"dB in place", inPlaceB, wantB},
	} {
		for i, v := range c.got {
			if w := c.want[i]; !sameBits(v, w) {
				return fmt.Sprintf("%s, n=%d, %s[%d] = %v [%#x], loop %v [%#x] (out %v, dOut %v)",
					set.name, n, c.name, i, v, math.Float64bits(v), w, math.Float64bits(w), out[i], dOut[i])
			}
		}
	}
	return ""
}

// TestTanhGradLanesMatchLoop referees TanhGradTo on the ZMM lanes, the
// YMM lanes and pure Go against tanhGradLoop bit for bit at every length
// up to 70 (every tail mod 8), on outputs over [−1, 1] and raw bit
// patterns mixed with signed zeros, ±1, infinities and NaNs.
func TestTanhGradLanesMatchLoop(t *testing.T) {
	forEachSet(t, func(t *testing.T, set laneSet) {
		rng := rand.New(rand.NewSource(5))
		specials := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.NaN(), 5e-324, 1e300}
		val := func(scale float64) float64 {
			switch rng.Intn(8) {
			case 0:
				return specials[rng.Intn(len(specials))]
			case 1:
				return math.Float64frombits(rng.Uint64())
			}
			return scale * (2*rng.Float64() - 1)
		}
		for n := 0; n <= 70; n++ {
			out, dOut, dB := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range out {
				out[i], dOut[i], dB[i] = val(1), val(3), val(10)
			}
			if msg := tanhGradMismatch(set, out, dOut, dB); msg != "" {
				t.Fatal(msg)
			}
		}
	})
}

// FuzzTanhGradLanes is the differential target for the tanh gradient
// pass: the input is read as raw little-endian float64 bit patterns, in
// triples of out, dOut and dB, and TanhGradTo on the ZMM lanes, the YMM
// lanes and pure Go must give tanhGradLoop's dPre and dB bit for bit, with
// dB, without it and in place.
func FuzzTanhGradLanes(f *testing.F) {
	f.Add(float64Bits(0.5, 1, 0, -0.25, 2, 0.125, 1, -1, 3, math.Copysign(0, -1), math.Copysign(0, -1), 0))
	f.Add(float64Bits(math.Inf(1), 1, 0, math.NaN(), 1, 1, 0.9, 5e-324, -1e300, -0.75, 0.5, 0.25, 0.3, 0.3, 0.3))
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := decodeFloat64s(data)
		n := (len(vs) + 2) / 3
		out, dOut, dB := make([]float64, n), make([]float64, n), make([]float64, n)
		cols := [3][]float64{out, dOut, dB}
		for i, v := range vs {
			cols[i%3][i/3] = v
		}
		forEachSet(t, func(t *testing.T, set laneSet) {
			if msg := tanhGradMismatch(set, out, dOut, dB); msg != "" {
				t.Fatal(msg)
			}
		})
	})
}

// BenchmarkTanhTo times one hidden layer's worth of bias add and tanh at
// the benchmark's width and the paper's MSD and LIGO widths on each kernel
// set — the ZMM lanes, the YMM lanes and the scalar math.Tanh loop — on
// pre-activations spread over both of tanh's branches, in Gelem/s (a tanh
// has no fixed flop count).
func BenchmarkTanhTo(b *testing.B) {
	for _, n := range []int{64, 256, 512} {
		rng := rand.New(rand.NewSource(1))
		pre, bias := make([]float64, n), make([]float64, n)
		for i := range pre {
			pre[i], bias[i] = 2*rng.NormFloat64(), 0.1*rng.NormFloat64()
		}
		out := make([]float64, n)
		for _, set := range []laneSet{zmmSet, avx2Set, goSet} {
			b.Run(fmt.Sprintf("n=%d/%s", n, set.name), func(b *testing.B) {
				set.require(b)
				if set.avx2 && !useTanhLanes {
					b.Skip("lane tanh not chosen at start-up")
				}
				set.use(func() {
					withTanhLanes(set.avx2, func() {
						for b.Loop() {
							TanhTo(out, pre, bias)
						}
					})
				})
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gelem/s")
			})
		}
	}
}
