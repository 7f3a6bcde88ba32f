package nn

import (
	"encoding/json"
	"fmt"

	"miras/internal/mat"
)

// networkJSON is the serialised form of a Network.
type networkJSON struct {
	AuxLayer int         `json:"aux_layer"`
	AuxDim   int         `json:"aux_dim"`
	Layers   []layerJSON `json:"layers"`
}

type layerJSON struct {
	Rows       int       `json:"rows"`
	Cols       int       `json:"cols"`
	Weights    []float64 `json:"weights"`
	Bias       []float64 `json:"bias"`
	Activation string    `json:"activation"`
}

// MarshalJSON implements json.Marshaler.
func (n *Network) MarshalJSON() ([]byte, error) {
	out := networkJSON{AuxLayer: n.AuxLayer, AuxDim: n.AuxDim}
	for _, layer := range n.Layers {
		out.Layers = append(out.Layers, layerJSON{
			Rows:       layer.W.Rows,
			Cols:       layer.W.Cols,
			Weights:    layer.W.Data,
			Bias:       layer.B,
			Activation: layer.Act.Name(),
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (n *Network) UnmarshalJSON(data []byte) error {
	var in networkJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("nn: decode network: %w", err)
	}
	if len(in.Layers) == 0 {
		return fmt.Errorf("nn: decoded network has no layers")
	}
	layers := make([]*Dense, 0, len(in.Layers))
	for i, lj := range in.Layers {
		if lj.Rows <= 0 || lj.Cols <= 0 {
			return fmt.Errorf("nn: layer %d has non-positive shape %dx%d", i, lj.Rows, lj.Cols)
		}
		if lj.Rows*lj.Cols != len(lj.Weights) {
			return fmt.Errorf("nn: layer %d weight length %d != %dx%d", i, len(lj.Weights), lj.Rows, lj.Cols)
		}
		if lj.Rows != len(lj.Bias) {
			return fmt.Errorf("nn: layer %d bias length %d != rows %d", i, len(lj.Bias), lj.Rows)
		}
		act, err := ActivationByName(lj.Activation)
		if err != nil {
			return fmt.Errorf("nn: layer %d: %w", i, err)
		}
		layers = append(layers, &Dense{
			W:   mat.NewFromSlice(lj.Rows, lj.Cols, lj.Weights),
			B:   mat.VecClone(lj.Bias),
			Act: act,
		})
	}
	n.Layers = layers
	n.AuxLayer = in.AuxLayer
	n.AuxDim = in.AuxDim
	// Reject inconsistent architectures and non-finite parameters here so
	// no torn or hand-edited file can reach inference code, which panics on
	// shape mismatches and silently propagates NaN.
	if err := n.Validate(); err != nil {
		n.Layers = nil
		return err
	}
	return nil
}
