package nn

import (
	"fmt"
	"math"

	"miras/internal/mat"
)

// AdamState is a serializable snapshot of an Adam optimizer's mutable
// state: the step counter and the first/second moment estimates, flattened
// per layer in the network's layer order. Restoring it with SetState makes
// the optimizer continue exactly where the snapshot was taken.
type AdamState struct {
	T  int         `json:"t"`
	MW [][]float64 `json:"mw"`
	MB [][]float64 `json:"mb"`
	VW [][]float64 `json:"vw"`
	VB [][]float64 `json:"vb"`
}

// State returns a deep copy of the optimizer's mutable state.
func (a *Adam) State() AdamState {
	s := AdamState{T: a.t}
	for l := range a.net.Layers {
		s.MW = append(s.MW, mat.VecClone(a.m.W[l].Data))
		s.MB = append(s.MB, mat.VecClone(a.m.B[l]))
		s.VW = append(s.VW, mat.VecClone(a.v.W[l].Data))
		s.VB = append(s.VB, mat.VecClone(a.v.B[l]))
	}
	return s
}

// SetState restores state captured by State. It validates shapes against
// the optimizer's network and rejects non-finite moments and negative
// second moments (whose square root is NaN; −0 is allowed) so a corrupted
// checkpoint cannot poison subsequent updates.
func (a *Adam) SetState(s AdamState) error {
	if s.T < 0 {
		return fmt.Errorf("nn: adam state: negative step count %d", s.T)
	}
	n := len(a.net.Layers)
	if len(s.MW) != n || len(s.MB) != n || len(s.VW) != n || len(s.VB) != n {
		return fmt.Errorf("nn: adam state: %d/%d/%d/%d moment layers, network has %d",
			len(s.MW), len(s.MB), len(s.VW), len(s.VB), n)
	}
	for l, layer := range a.net.Layers {
		nw, nb := len(layer.W.Data), len(layer.B)
		if len(s.MW[l]) != nw || len(s.VW[l]) != nw {
			return fmt.Errorf("nn: adam state: layer %d weight moments %d/%d != %d",
				l, len(s.MW[l]), len(s.VW[l]), nw)
		}
		if len(s.MB[l]) != nb || len(s.VB[l]) != nb {
			return fmt.Errorf("nn: adam state: layer %d bias moments %d/%d != %d",
				l, len(s.MB[l]), len(s.VB[l]), nb)
		}
		for _, vals := range [][]float64{s.MW[l], s.MB[l], s.VW[l], s.VB[l]} {
			for _, v := range vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("nn: adam state: non-finite moment in layer %d", l)
				}
			}
		}
		for _, vals := range [][]float64{s.VW[l], s.VB[l]} {
			for _, v := range vals {
				if v < 0 {
					return fmt.Errorf("nn: adam state: negative second moment in layer %d", l)
				}
			}
		}
	}
	a.t = s.T
	for l := range a.net.Layers {
		copy(a.m.W[l].Data, s.MW[l])
		copy(a.m.B[l], s.MB[l])
		copy(a.v.W[l].Data, s.VW[l])
		copy(a.v.B[l], s.VB[l])
	}
	return nil
}

// CheckFinite returns an error naming the first non-finite parameter
// (NaN or ±Inf) in the network, or nil when every weight and bias is
// finite. This is the divergence probe the training guard and the
// snapshot loaders share.
func (n *Network) CheckFinite() error {
	for l, layer := range n.Layers {
		for i, v := range layer.W.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: layer %d weight %d is %v", l, i, v)
			}
		}
		for i, v := range layer.B {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: layer %d bias %d is %v", l, i, v)
			}
		}
	}
	return nil
}

// SameShape reports whether o has the same architecture as n (layer count,
// per-layer dimensions, aux wiring), returning a descriptive error when it
// does not. It is the non-panicking counterpart of mustMatch, for use on
// untrusted (deserialized) networks.
func (n *Network) SameShape(o *Network) error {
	if o == nil {
		return fmt.Errorf("nn: nil network")
	}
	if len(n.Layers) != len(o.Layers) {
		return fmt.Errorf("nn: layer count %d != %d", len(o.Layers), len(n.Layers))
	}
	if n.AuxLayer != o.AuxLayer || n.AuxDim != o.AuxDim {
		return fmt.Errorf("nn: aux wiring (%d,%d) != (%d,%d)", o.AuxLayer, o.AuxDim, n.AuxLayer, n.AuxDim)
	}
	for l, layer := range n.Layers {
		ol := o.Layers[l]
		if layer.InDim() != ol.InDim() || layer.OutDim() != ol.OutDim() {
			return fmt.Errorf("nn: layer %d shape %dx%d != %dx%d",
				l, ol.OutDim(), ol.InDim(), layer.OutDim(), layer.InDim())
		}
	}
	return nil
}

// Validate checks the structural integrity of a network, typically one
// just decoded from JSON: at least one layer, positive dimensions,
// consecutive layers that agree on width (accounting for the auxiliary
// input), sane aux wiring, and fully finite parameters.
func (n *Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("nn: network has no layers")
	}
	if n.AuxLayer < -1 || n.AuxLayer >= len(n.Layers) {
		return fmt.Errorf("nn: aux layer %d out of range for %d layers", n.AuxLayer, len(n.Layers))
	}
	if n.AuxLayer >= 0 && n.AuxDim <= 0 {
		return fmt.Errorf("nn: aux layer %d set but aux dim %d not positive", n.AuxLayer, n.AuxDim)
	}
	if n.AuxLayer < 0 && n.AuxDim != 0 {
		return fmt.Errorf("nn: aux dim %d without aux layer", n.AuxDim)
	}
	for l, layer := range n.Layers {
		if layer == nil || layer.W == nil {
			return fmt.Errorf("nn: layer %d is nil", l)
		}
		if layer.InDim() <= 0 || layer.OutDim() <= 0 {
			return fmt.Errorf("nn: layer %d has non-positive shape %dx%d", l, layer.OutDim(), layer.InDim())
		}
		if len(layer.B) != layer.OutDim() {
			return fmt.Errorf("nn: layer %d bias length %d != rows %d", l, len(layer.B), layer.OutDim())
		}
		if l == n.AuxLayer && layer.InDim() <= n.AuxDim {
			return fmt.Errorf("nn: aux layer %d input %d not wider than aux dim %d",
				l, layer.InDim(), n.AuxDim)
		}
		if l > 0 {
			want := n.Layers[l-1].OutDim()
			if l == n.AuxLayer {
				want += n.AuxDim
			}
			if layer.InDim() != want {
				return fmt.Errorf("nn: layer %d input %d != layer %d output (+aux) %d",
					l, layer.InDim(), l-1, want)
			}
		}
	}
	return n.CheckFinite()
}
