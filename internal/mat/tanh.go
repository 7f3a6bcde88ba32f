package mat

import "math"

// TanhTo writes math.Tanh(pre[i]) into out[i], bit for bit. out must be at
// least as long as pre and may be pre itself. Runs of four go through
// tanhLanes when useTanhLanes is set; the tail, and every element
// otherwise, call math.Tanh.
func TanhTo(out, pre []float64) {
	out = out[:len(pre)]
	n := 0
	if useTanhLanes {
		n = len(pre) &^ 3
		if n > 0 {
			tanhLanes(n, &out[0], &pre[0])
		}
	}
	for i := n; i < len(pre); i++ {
		out[i] = math.Tanh(pre[i])
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

func tanhLanesMatchMath() bool {
	var got [len(tanhProbe)]float64
	tanhLanes(len(got), &got[0], &tanhProbe[0])
	for i, x := range tanhProbe {
		want := math.Tanh(x)
		if math.Float64bits(got[i]) != math.Float64bits(want) && !(got[i] != got[i] && want != want) {
			return false
		}
	}
	return true
}
