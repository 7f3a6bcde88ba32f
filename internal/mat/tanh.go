package mat

import "math"

// TanhTo writes math.Tanh(pre[i]+b[i]) into out[i], bit for bit: a layer's
// bias add and tanh in one pass. b and out must be at least as long as
// pre; out may be pre itself. When useTanhLanes is set,
// runs of eight go through tanhLanes512 if useAVX512 is set too, and the
// rest in runs of four through tanhLanes; the tail, and every element
// otherwise, call math.Tanh.
func TanhTo(out, pre, b []float64) {
	out, b = out[:len(pre)], b[:len(pre)]
	n := 0
	if useTanhLanes {
		if useAVX512 {
			n = len(pre) &^ 7
			if n > 0 {
				tanhLanes512(n, &out[0], &pre[0], &b[0])
			}
		}
		if m := len(pre) &^ 3; m > n {
			tanhLanes(m-n, &out[n], &pre[n], &b[n])
			n = m
		}
	}
	for i := n; i < len(pre); i++ {
		out[i] = math.Tanh(pre[i] + b[i])
	}
}

// TanhGradTo writes dPre[i] = dOut[i]·(1 − out[i]²), tanh's gradient at
// its pre-activation given its output out, and adds dPre[i] into dB[i]
// unless dB is nil: a layer's activation and bias gradients in one pass.
// out, dOut and a non-nil dB must be at least as long as dPre; dPre may
// be dOut itself. With useAVX2 set, runs of eight go through
// tanhGradLanes512 if useAVX512 is set too, and the rest in runs of four
// through tanhGradLanes; each entry is the same multiply, subtract,
// multiply and add as the loop that takes the tail, bit for bit.
func TanhGradTo(dPre, out, dOut, dB []float64) {
	n := len(dPre)
	out, dOut = out[:n], dOut[:n]
	if dB != nil {
		dB = dB[:n]
	}
	// lane returns a kernel's dB operand for the run starting at i.
	lane := func(i int) *float64 {
		if dB == nil {
			return nil
		}
		return &dB[i]
	}
	i := 0
	if useAVX2 {
		if useAVX512 {
			i = n &^ 7
			if i > 0 {
				tanhGradLanes512(i, &dPre[0], &out[0], &dOut[0], lane(0))
			}
		}
		if m := n &^ 3; m > i {
			tanhGradLanes(m-i, &dPre[i], &out[i], &dOut[i], lane(i))
			i = m
		}
	}
	for ; i < n; i++ {
		dPre[i] = dOut[i] * (1 - out[i]*out[i])
		if dB != nil {
			dB[i] += dPre[i]
		}
	}
}

// useTanhLanes selects the lane tanh. CPUID says whether the kernel can
// run; tanhProbe then checks that it rounds like this process's math.Tanh,
// which is not the case when math.Exp does not take its FMA path (no FMA,
// or GODEBUG=cpu.fma=off). Tests flip it to referee the lanes.
var useTanhLanes = haveTanhLanes && tanhLanesMatchMath()

// tanhProbe holds inputs on both branches of math.tanh and at their edges;
// the first four are among those whose tanh differs between math.Exp's FMA
// and non-FMA paths, so a math.Tanh that rounds differently fails it.
var tanhProbe = [...]float64{
	-1.921875, 0.6298828125, 0.76171875, -2.9013671875,
	0.1, -0.3, 0.5, -0.6249999999999999,
	0.625, -1.5, 3.25, -7.75,
	19.5, -44.01, 44.014845965556525, -44.01484596555653,
	0, math.Copysign(0, -1), 5e-324, -1e-310,
	math.Inf(1), math.Inf(-1), math.NaN(), 1e300,
}

// tanhLanesMatchMath runs the probe through tanhLanes and, where the CPU
// has it, tanhLanes512, under a bias of −0, which leaves every x as it is
// (−0 included); both must match math.Tanh.
func tanhLanesMatchMath() bool {
	var got, bias [len(tanhProbe)]float64
	for i := range bias {
		bias[i] = math.Copysign(0, -1)
	}
	tanhLanes(len(got), &got[0], &tanhProbe[0], &bias[0])
	if !probeMatches(&got) {
		return false
	}
	if haveAVX512 {
		tanhLanes512(len(got), &got[0], &tanhProbe[0], &bias[0])
		return probeMatches(&got)
	}
	return true
}

func probeMatches(got *[len(tanhProbe)]float64) bool {
	for i, x := range tanhProbe {
		want := math.Tanh(x)
		if math.Float64bits(got[i]) != math.Float64bits(want) && !(got[i] != got[i] && want != want) {
			return false
		}
	}
	return true
}
