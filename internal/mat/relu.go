package mat

import "math"

// ReLUTo writes pre[i]+b[i] into out[i] where that sum is positive and +0
// elsewhere, NaN included: max(0, x) exactly as the branch `if x > 0` takes
// it, a layer's bias add and ReLU in one pass. b and out must be at least
// as long as pre; out may be pre itself. With useAVX2 set, runs of four go
// through reluLanes (an ordered greater-than compare against +0, then an
// AND); the tail, and every element otherwise, take positiveMask.
func ReLUTo(out, pre, b []float64) {
	n := len(pre)
	out, b = out[:n], b[:n]
	i := 0
	if useAVX2 && n >= 4 {
		i = n &^ 3
		reluLanes(i, &out[0], &pre[0], &b[0])
	}
	for ; i < n; i++ {
		v := pre[i] + b[i]
		out[i] = math.Float64frombits(math.Float64bits(v) & positiveMask(v))
	}
}

// ReLUGradTo writes dPre[i] = dOut[i] where out[i] > 0 and +0 elsewhere,
// ReLU's gradient at its pre-activation given its output out, and adds
// dPre[i] into dB[i] unless dB is nil: a layer's activation and bias
// gradients in one pass, as TanhGradTo forms tanh's. out, dOut and a
// non-nil dB must be at least as long as dPre; dPre may be dOut itself.
// With useAVX2 set, runs of four go through reluGradLanes.
func ReLUGradTo(dPre, out, dOut, dB []float64) {
	n := len(dPre)
	out, dOut = out[:n], dOut[:n]
	i := 0
	if useAVX2 && n >= 4 {
		i = n &^ 3
		var db *float64
		if dB != nil {
			db = &dB[0]
		}
		reluGradLanes(i, &dPre[0], &out[0], &dOut[0], db)
	}
	if dB == nil {
		for ; i < n; i++ {
			dPre[i] = math.Float64frombits(math.Float64bits(dOut[i]) & positiveMask(out[i]))
		}
		return
	}
	dB = dB[:n]
	for ; i < n; i++ {
		d := math.Float64frombits(math.Float64bits(dOut[i]) & positiveMask(out[i]))
		dPre[i] = d
		dB[i] += d
	}
}

// positiveMask returns all ones when v > 0 and zero otherwise, without a
// branch: v > 0 exactly when its bits, less one, fall below +Inf's as an
// unsigned compare — +0 wraps to the top, and every negative value and
// NaN sits above +Inf — and that compare's borrow is the top bit of
// ^x & (x − inf), spread by the arithmetic shift.
func positiveMask(v float64) uint64 {
	const infBits = 0x7ff0000000000000
	x := math.Float64bits(v) - 1
	return uint64(int64(^x&(x-infBits)) >> 63)
}
