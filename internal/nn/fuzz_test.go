package nn

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"miras/internal/mat"
)

// FuzzNetworkDecode hammers the network JSON codec — the input surface of
// policy snapshots, saved models, and training checkpoints. Decoding must
// never panic; a successful decode must yield a structurally valid network
// (consistent layer widths, finite parameters) that round-trips to stable
// bytes and survives a forward pass.
func FuzzNetworkDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	plain := NewNetwork(Config{Sizes: []int{3, 4, 2}, AuxLayer: -1}, rng)
	aux := NewNetwork(Config{Sizes: []int{3, 4, 1}, AuxLayer: 1, AuxDim: 2}, rng)
	for _, n := range []*Network{plain, aux} {
		data, err := json.Marshal(n)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"aux_layer":-1,"layers":[{"rows":1,"cols":1,"weights":[0.5],"bias":[0],"activation":"identity"}]}`))
	f.Add([]byte(`{"aux_layer":-1,"layers":[{"rows":2,"cols":1,"weights":[1],"bias":[0,0],"activation":"relu"}]}`))
	f.Add([]byte(`{"aux_layer":-1,"layers":[{"rows":-1,"cols":-1,"weights":[1],"bias":[],"activation":"relu"}]}`))
	f.Add([]byte(`{"aux_layer":0,"aux_dim":3,"layers":[{"rows":1,"cols":2,"weights":[1,2],"bias":[0],"activation":"tanh"}]}`))
	f.Add([]byte(`{"aux_layer":-1,"layers":[{"rows":1,"cols":1,"weights":[1e999],"bias":[0],"activation":"identity"}]}`))
	f.Add([]byte(`{"aux_layer":-1,"layers":[{"rows":1,"cols":2,"weights":[1,1],"bias":[0],"activation":"identity"},{"rows":1,"cols":3,"weights":[1,1,1],"bias":[0],"activation":"identity"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var n Network
		if err := json.Unmarshal(data, &n); err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("decoded network fails validation: %v\ninput: %q", err, data)
		}
		// A validated network must survive inference on a zero input.
		x := make([]float64, n.InDim())
		var auxIn []float64
		if n.AuxLayer >= 0 {
			auxIn = make([]float64, n.AuxDim)
		}
		_ = n.Forward(x, auxIn)
		out, err := json.Marshal(&n)
		if err != nil {
			t.Fatalf("re-encode failed: %v\ninput: %q", err, data)
		}
		var n2 Network
		if err := json.Unmarshal(out, &n2); err != nil {
			t.Fatalf("round-trip decode failed: %v\nencoded: %q", err, out)
		}
		out2, err := json.Marshal(&n2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("round-trip unstable:\nfirst:  %q\nsecond: %q", out, out2)
		}
	})
}

// FuzzAuxGradBatch is the differential target for the aux-only backward
// pass: the network shape, the aux layer's position, the batch size and
// then the inputs, output gradient and parameters are decoded from the fuzz
// input, and AuxGradBatch must equal the per-sample Backward's dAux bit
// for bit.
func FuzzAuxGradBatch(f *testing.F) {
	f.Add([]byte{0, 3, 2, 0, 0, 0, 2, 4})                         // one layer, aux at 0
	f.Add([]byte{1, 4, 9, 1, 1, 3, 1, 2, 4, 0x80, 0x7f, 0, 0x10}) // aux at the last of two
	f.Add([]byte{2, 5, 33, 7, 3, 1, 2, 4, 3, 6, 8, 0xff, 0xfe})   // aux mid-network, ReLU
	f.Add([]byte{2, 1, 39, 39, 1, 0, 3, 0, 5, 8})                 // 40-wide, aux at 0, Softmax
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		net, x, aux, dOut := decodeAuxCase(data)
		if msg := auxGradMismatch(net, x, aux, dOut); msg != "" {
			t.Fatalf("%s\ninput: %v", msg, data)
		}
	})
}

// decodeAuxCase builds one AuxGradBatch case from fuzz bytes. Everything
// starts from a fixed-seed random network and random matrices, and the
// bytes left after the shape overwrite values in order — inputs, aux,
// output gradient, then parameters — so a short input still yields a
// nontrivial case.
func decodeAuxCase(data []byte) (net *Network, x, aux, dOut *mat.Matrix) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	fill := func(vs []float64) {
		for i := range vs {
			if len(data) == 0 {
				return
			}
			vs[i] = float64(int8(next())) / 32
		}
	}
	layers := 1 + next()%3
	sizes := make([]int, layers+1)
	for i := range sizes {
		sizes[i] = 1 + next()%40
	}
	hiddens := []Activation{Tanh{}, ReLU{}, Sigmoid{}}
	outputs := []Activation{Identity{}, Tanh{}, ReLU{}, Softmax{}}
	cfg := Config{
		Sizes:    sizes,
		Hidden:   hiddens[next()%len(hiddens)],
		Output:   outputs[next()%len(outputs)],
		AuxLayer: next() % layers,
		AuxDim:   1 + next()%6,
	}
	batch := 1 + next()%9
	rng := rand.New(rand.NewSource(1))
	net = NewNetwork(cfg, rng)
	x = mat.NewRandn(batch, net.InDim(), 1, rng)
	aux = mat.NewRandn(batch, cfg.AuxDim, 1, rng)
	dOut = mat.NewRandn(batch, net.OutDim(), 1, rng)
	for _, m := range []*mat.Matrix{x, aux, dOut} {
		fill(m.Data)
	}
	for _, layer := range net.Layers {
		fill(layer.W.Data)
		fill(layer.B)
	}
	return net, x, aux, dOut
}
