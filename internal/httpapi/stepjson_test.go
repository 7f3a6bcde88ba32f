package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// stepResponseFrom decodes a fuzz input into a StepResponse. floats is read
// as little-endian float64 bits: the first two are the reward and the mean
// delay, the rest are dealt round-robin to state, arrival, completion and
// utilization. ints is read as little-endian int64s dealt alternately to
// consumers and allocation. Bit i of shape makes the i-th of those six
// slices non-nil before anything is dealt to it, so each can be nil, empty
// or filled.
func stepResponseFrom(floats, ints []byte, window int, controller string, shape uint8) StepResponse {
	var fs []float64
	for ; len(floats) >= 8; floats = floats[8:] {
		fs = append(fs, math.Float64frombits(binary.LittleEndian.Uint64(floats)))
	}
	next := func() float64 {
		if len(fs) == 0 {
			return 0
		}
		f := fs[0]
		fs = fs[1:]
		return f
	}
	r := StepResponse{Reward: next(), MeanDelaySec: next(), Window: window, Completed: -window, Controller: controller}
	fslices := []*[]float64{&r.State, &r.ArrivalRate, &r.CompletionRate, &r.Utilization}
	islices := []*[]int{&r.Consumers, &r.Allocation}
	for i, v := range fslices {
		if shape&(1<<i) != 0 {
			*v = []float64{}
		}
	}
	for i, v := range islices {
		if shape&(1<<(4+i)) != 0 {
			*v = []int{}
		}
	}
	for i, f := range fs {
		*fslices[i%4] = append(*fslices[i%4], f)
	}
	for i := 0; len(ints) >= 8; i, ints = i+1, ints[8:] {
		*islices[i%2] = append(*islices[i%2], int(int64(binary.LittleEndian.Uint64(ints))))
	}
	return r
}

// floatBytes encodes fs as stepResponseFrom reads them.
func floatBytes(fs ...float64) []byte {
	var b []byte
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func intBytes(ns ...int64) []byte {
	var b []byte
	for _, n := range ns {
		b = binary.LittleEndian.AppendUint64(b, uint64(n))
	}
	return b
}

// FuzzStepResponseEncoding is appendStepResponse's differential referee:
// for any response — raw float64 bits (NaN, ±Inf, subnormals, both sides
// of the 1e-6 and 1e21 format switches, -0), nil, empty and filled slices,
// any controller string — it must append exactly json.Encoder's bytes, or,
// where the encoder fails, fail with the encoder's error and append nothing.
func FuzzStepResponseEncoding(f *testing.F) {
	below1e6 := math.Nextafter(1e-6, 0)
	below1e21 := math.Nextafter(1e21, 0)
	f.Add(floatBytes(-3, 12.5, 0, 1, 2, 0.5, 0.25, 0.1, 1.5, 0.75), intBytes(2, 3, 4, 1), 7, "policy", uint8(0))
	f.Add(floatBytes(1e-6, below1e6, 1e21, below1e21, -1e-7, -1e22, 5e-324, math.SmallestNonzeroFloat64*3), intBytes(), 0, "", uint8(0x0f))
	f.Add(floatBytes(math.Copysign(0, -1), 1e-300, math.MaxFloat64, 123456789.125, 1e20, 1.5e-9), intBytes(-1, math.MaxInt64, math.MinInt64), -2, "hpa", uint8(0x30))
	f.Add(floatBytes(math.NaN(), 0), intBytes(1), 1, "policy", uint8(0))
	f.Add(floatBytes(0, 0, 1, math.Inf(1)), intBytes(1, 2), 1, "policy", uint8(0))
	f.Add(floatBytes(0, math.Inf(-1)), intBytes(), 1, "", uint8(0))
	f.Add(floatBytes(1, 2), intBytes(5, 6), 3, "<a&b>\"\\\n\u2028é\xff", uint8(0x3f))
	f.Fuzz(func(t *testing.T, floats, ints []byte, window int, controller string, shape uint8) {
		r := stepResponseFrom(floats, ints, window, controller, shape)
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(r)
		prefix := []byte("kept")
		got, err := appendStepResponse(prefix, r)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() || string(got) != "kept" {
				t.Fatalf("%+v: got %q, %v; json.Encoder fails with %v", r, got, err, wantErr)
			}
			return
		}
		if err != nil || !bytes.Equal(got[len(prefix):], want.Bytes()) || string(got[:len(prefix)]) != "kept" {
			t.Fatalf("%+v:\n got %q, %v\nwant %q", r, got, err, want.Bytes())
		}
	})
}
