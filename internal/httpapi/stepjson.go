package httpapi

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// appendStepResponse appends r to b exactly as json.Encoder encodes it,
// trailing newline included, without reflection: fields in declaration
// order, null for a nil slice, allocation and controller left out when
// empty, floats in the encoder's shortest form ('e' below 1e-6 and from
// 1e21 on, with a one-digit negative exponent), strings HTML-escaped.
// JSON has no NaN or infinity: for a response holding one it returns b
// unchanged and the error json.Encoder reports for it.
// FuzzStepResponseEncoding is the differential referee. r is taken by
// value so that only the fallback moves it to the heap.
func appendStepResponse(b []byte, r StepResponse) ([]byte, error) {
	if !stepFinite(&r) {
		return b, json.NewEncoder(io.Discard).Encode(r)
	}
	b = append(b, `{"state":`...)
	b = appendFloats(b, r.State)
	b = append(b, `,"reward":`...)
	b = appendFloat(b, r.Reward)
	b = append(b, `,"window":`...)
	b = strconv.AppendInt(b, int64(r.Window), 10)
	b = append(b, `,"consumers":`...)
	b = appendInts(b, r.Consumers)
	b = append(b, `,"arrival_rate":`...)
	b = appendFloats(b, r.ArrivalRate)
	b = append(b, `,"completion_rate":`...)
	b = appendFloats(b, r.CompletionRate)
	b = append(b, `,"utilization":`...)
	b = appendFloats(b, r.Utilization)
	b = append(b, `,"completed":`...)
	b = strconv.AppendInt(b, int64(r.Completed), 10)
	b = append(b, `,"mean_delay_sec":`...)
	b = appendFloat(b, r.MeanDelaySec)
	if len(r.Allocation) > 0 {
		b = append(b, `,"allocation":`...)
		b = appendInts(b, r.Allocation)
	}
	if r.Controller != "" {
		b = append(b, `,"controller":`...)
		b = appendString(b, r.Controller)
	}
	return append(b, "}\n"...), nil
}

// stepFinite reports whether every float in r is finite.
func stepFinite(r *StepResponse) bool {
	finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	if !finite(r.Reward) || !finite(r.MeanDelaySec) {
		return false
	}
	for _, v := range [...][]float64{r.State, r.ArrivalRate, r.CompletionRate, r.Utilization} {
		for _, f := range v {
			if !finite(f) {
				return false
			}
		}
	}
	return true
}

// appendFloat appends a finite f in encoding/json's float64 form.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func appendFloats(b []byte, v []float64) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, f := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, f)
	}
	return append(b, ']')
}

func appendInts(b []byte, v []int) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, n := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, ']')
}

// appendString appends s quoted. A string with a byte JSON or HTML
// escaping would touch — never one of the controller names — goes through
// json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
