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

// expOnFMAPath reports whether math.Exp takes its FMA path in this process:
// 0x404759a28795660f is math.Exp(3.84375) there, and the non-FMA path
// rounds it one ulp higher.
func expOnFMAPath() bool {
	return math.Float64bits(math.Exp(3.84375)) == 0x404759a28795660f
}

// tanhMismatch runs TanhTo with the lanes of arm on over xs, into a fresh
// slice and in place, and describes the first element that differs from
// math.Tanh ("" if none).
func tanhMismatch(arm laneSet, xs []float64) string {
	out := make([]float64, len(xs))
	inPlace := append([]float64(nil), xs...)
	arm.use(func() {
		withTanhLanes(true, func() {
			TanhTo(out, xs)
			TanhTo(inPlace, inPlace)
		})
	})
	for i, x := range xs {
		want := math.Tanh(x)
		for _, got := range []float64{out[i], inPlace[i]} {
			if !sameBits(got, want) {
				return fmt.Sprintf("%s, n=%d, element %d: TanhTo(%v [%#x]) = %v [%#x], math.Tanh = %v [%#x]",
					arm.name, len(xs), i, x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	return ""
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

// TestTanhLanesMatchMathTanh referees the ZMM and the YMM lane tanh
// against math.Tanh bit for bit: a dense sweep of [−50, 50] at 1/4096, the
// branch edges 0.625 and 0.5·MAXLOG to ±4 ulps on both signs, 32 768
// random inputs (half raw bit patterns), signed zeros, subnormals,
// infinities and NaNs, at every length mod 8, written to a fresh slice and
// in place.
func TestTanhLanesMatchMathTanh(t *testing.T) {
	requireTanhLanes(t)
	forEachArm(t, func(t *testing.T, arm laneSet) { tanhMatchesMath(t, arm) })
}

func tanhMatchesMath(t *testing.T, arm laneSet) {
	var sweep []float64
	for i := -50 * 4096; i <= 50*4096; i++ {
		sweep = append(sweep, float64(i)/4096)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1<<14; i++ {
		sweep = append(sweep, math.Float64frombits(rng.Uint64()), 8*rng.NormFloat64())
	}
	if msg := tanhMismatch(arm, sweep); msg != "" {
		t.Fatal(msg)
	}
	const maxLog = 8.8029691931113054295988e+01
	var edges []float64
	for _, e := range []float64{0.625, 0.5 * maxLog} {
		edges = append(edges, ulpsAround(e, 4)...)
		edges = append(edges, ulpsAround(-e, 4)...)
	}
	specials := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072009e-308, -1e-310, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8000000000001), math.MaxFloat64, -math.MaxFloat64, 1e-8, -3e-160}
	vals := append(edges, specials...)
	for n := 0; n <= len(vals); n++ {
		// Rotate so every value meets every lane position at some length.
		xs := append(append([]float64(nil), vals[n%len(vals):]...), vals[:n%len(vals)]...)[:n]
		if msg := tanhMismatch(arm, xs); msg != "" {
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
		TanhTo(out, xs)
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
// read as raw little-endian float64 bit patterns — so signed zeros,
// subnormals, infinities, NaNs and every branch edge can occur at any lane
// position — and TanhTo with the ZMM and with the YMM lanes, into a fresh
// slice and in place, must equal math.Tanh bit for bit (NaNs equal to any
// NaN).
func FuzzTanhLanes(f *testing.F) {
	requireTanhLanes(f)
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(bits(-1.921875, 0.625, math.Nextafter(0.625, 0), 44.014845965556525, 44.01484596555653))
	f.Add(bits(0, math.Copysign(0, -1), 5e-324, math.Inf(-1), math.NaN(), 1e300, -0.3))
	f.Add(bits(0.1, 0.2, 0.3, 0.4))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		forEachArm(t, func(t *testing.T, arm laneSet) {
			if msg := tanhMismatch(arm, xs); msg != "" {
				t.Fatal(msg)
			}
		})
	})
}

// BenchmarkTanhTo times one hidden layer's worth of tanh at the benchmark's
// width and the paper's MSD and LIGO widths on each kernel set — the ZMM
// lanes, the YMM lanes and the scalar math.Tanh loop — on pre-activations
// spread over both of tanh's branches, in Gelem/s (a tanh has no fixed
// flop count).
func BenchmarkTanhTo(b *testing.B) {
	for _, n := range []int{64, 256, 512} {
		rng := rand.New(rand.NewSource(1))
		pre := make([]float64, n)
		for i := range pre {
			pre[i] = 2 * rng.NormFloat64()
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
							TanhTo(out, pre)
						}
					})
				})
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gelem/s")
			})
		}
	}
}
