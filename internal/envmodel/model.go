package envmodel

import (
	"fmt"
	"math/rand"

	"miras/internal/mat"
	"miras/internal/nn"
	"miras/internal/obs"
	"miras/internal/sim"
)

// The model's Adam learning rate and minibatch size: no experiment varies
// them.
const (
	learningRate = 1e-3
	batchSize    = 64
)

// Config parameterises the environment model. The network regresses the
// state *delta* s(k+1) − s(k) and adds it back — the reparameterisation of
// Nagabandi et al. (the paper's ref. [25]) that removes the dominant
// identity component from the learning problem. Deltas are what carry the
// inter-service coupling (completions at one microservice filling the next
// queue), which regressing s(k+1) directly would drown in state magnitude.
type Config struct {
	// StateDim is J, the WIP vector width. Required.
	StateDim int
	// ActionDim is the action vector width (J as well in the paper, since
	// the action is the per-microservice consumer count). Required.
	ActionDim int
	// Hidden lists the hidden-layer widths. The paper uses {20, 20, 20}
	// for MSD and {20} for LIGO (§VI-A3; the smaller LIGO network avoids
	// overfitting). Defaults to {20, 20, 20}.
	Hidden []int
	// Seed seeds weight initialisation and batch sampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Hidden == nil {
		c.Hidden = []int{20, 20, 20}
	}
	return c
}

// Model is the neural environment model f̂_Φ: (s(k), a(k)) → ŝ(k+1)
// (§IV-C1, Figure 4). Inputs and outputs are standardised with statistics
// refit on every call to Fit.
type Model struct {
	cfg Config
	net *nn.Network
	opt *nn.Adam
	// rng draws from src, a SplitMix64 source whose position is exported
	// into training checkpoints.
	rng     *rand.Rand
	src     *sim.SplitMix
	inNorm  *Normalizer
	outNorm *Normalizer

	// scratch buffers reused across Predict calls.
	inBuf  []float64
	outBuf []float64
	cache  *nn.Cache
	grads  *nn.Grads

	// batched-training scratch reused across Fit calls: one row per
	// minibatch sample, plus the sampled-transition staging slice, the
	// per-epoch loss buffer Fit returns a view of, and the persistent
	// normalizer storage fitNormalizers refits in place — together they
	// keep the steady-state Fit loop allocation-free.
	bcache         *nn.BatchCache
	batchX, batchT *mat.Matrix
	batchD         *mat.Matrix
	fitBatch       []Transition
	lossBuf        []float64
	fitIn, fitOut  *Normalizer

	tracer *obs.Tracer
}

// New builds an untrained model.
func New(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDim <= 0 || cfg.ActionDim <= 0 {
		return nil, fmt.Errorf("envmodel: dims must be positive, got state=%d action=%d",
			cfg.StateDim, cfg.ActionDim)
	}
	src := sim.NewSplitMix(uint64(cfg.Seed))
	rng := rand.New(src)
	sizes := []int{cfg.StateDim + cfg.ActionDim}
	sizes = append(sizes, cfg.Hidden...)
	sizes = append(sizes, cfg.StateDim)
	net := nn.NewNetwork(nn.Config{
		Sizes:    sizes,
		Hidden:   nn.ReLU{}, // the paper uses ReLU (§IV-C1)
		Output:   nn.Identity{},
		AuxLayer: -1,
	}, rng)
	m := &Model{
		cfg:      cfg,
		net:      net,
		opt:      nn.NewAdam(net, learningRate),
		rng:      rng,
		src:      src,
		inBuf:    make([]float64, cfg.StateDim+cfg.ActionDim),
		outBuf:   make([]float64, cfg.StateDim),
		cache:    nn.NewCache(net),
		grads:    nn.NewGrads(net),
		bcache:   nn.NewBatchCache(net, batchSize),
		batchX:   mat.New(batchSize, cfg.StateDim+cfg.ActionDim),
		batchT:   mat.New(batchSize, cfg.StateDim),
		batchD:   mat.New(batchSize, cfg.StateDim),
		fitBatch: make([]Transition, batchSize),
		fitIn: &Normalizer{
			Mean: make([]float64, cfg.StateDim+cfg.ActionDim),
			Std:  make([]float64, cfg.StateDim+cfg.ActionDim),
		},
		fitOut: &Normalizer{
			Mean: make([]float64, cfg.StateDim),
			Std:  make([]float64, cfg.StateDim),
		},
	}
	return m, nil
}

// SetTracer attaches a tracer; Fit then emits one "model.fit" span per call
// carrying the dataset size, the epoch count and every epoch's loss. A nil
// tracer keeps Fit's hot loop allocation-free.
func (m *Model) SetTracer(t *obs.Tracer) { m.tracer = t }

// StateDim returns the model's state width.
func (m *Model) StateDim() int { return m.cfg.StateDim }

// ActionDim returns the model's action width.
func (m *Model) ActionDim() int { return m.cfg.ActionDim }

// Trained reports whether Fit has been called at least once.
func (m *Model) Trained() bool { return m.inNorm != nil }

// Fit (re)fits the normalisation statistics on d and trains the network
// for the given number of epochs, minimising the one-step squared
// prediction error of §IV-C1. It returns the mean training loss of each
// epoch (in normalised units); the returned slice aliases a reusable
// buffer and is valid until the next Fit on this model — copy it to
// retain. Repeated calls continue training the same parameters with
// refreshed statistics — the incremental retraining of Algorithm 2 line 4.
func (m *Model) Fit(d *Dataset, epochs int) ([]float64, error) {
	if d.StateDim() != m.cfg.StateDim || d.ActionDim() != m.cfg.ActionDim {
		return nil, fmt.Errorf("envmodel: dataset dims (%d,%d) != model dims (%d,%d)",
			d.StateDim(), d.ActionDim(), m.cfg.StateDim, m.cfg.ActionDim)
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("envmodel: empty dataset")
	}
	if epochs <= 0 {
		return nil, fmt.Errorf("envmodel: epochs must be positive, got %d", epochs)
	}
	m.fitNormalizers(d)

	fitSpan := m.tracer.Start("model.fit").
		Int("dataset", d.Len()).
		Int("epochs", epochs)

	batch := m.fitBatch
	// outBuf doubles as the raw-target scratch: it is only live inside
	// PredictTo and fitNormalizers, never across the staging loop.
	raw := m.outBuf
	stepsPerEpoch := (d.Len() + batchSize - 1) / batchSize

	if cap(m.lossBuf) < epochs {
		m.lossBuf = make([]float64, 0, epochs)
	}
	losses := m.lossBuf[:0]
	for e := 0; e < epochs; e++ {
		var epochLoss float64
		for s := 0; s < stepsPerEpoch; s++ {
			d.SampleBatch(m.rng, batch)
			m.grads.Zero()
			// Stage the minibatch as one row-per-sample matrix and run the
			// batched pass: one GEMM per layer instead of per-sample
			// matrix-vector products.
			for i, t := range batch {
				x := m.batchX.Row(i)
				copy(x, t.State)
				copy(x[m.cfg.StateDim:], t.Action)
				m.inNorm.Apply(x, x)
				m.targetTo(raw, t)
				m.outNorm.Apply(m.batchT.Row(i), raw)
			}
			pred := m.net.ForwardBatch(m.bcache, m.batchX, nil)
			var batchLoss float64
			for i := range batch {
				batchLoss += nn.MSE(m.batchD.Row(i), pred.Row(i), m.batchT.Row(i))
			}
			m.net.BackwardBatch(m.bcache, m.batchD, m.grads)
			m.grads.ScaleClip(1/float64(len(batch)), 5)
			m.opt.Step(m.grads)
			epochLoss += batchLoss / float64(len(batch))
		}
		losses = append(losses, epochLoss/float64(stepsPerEpoch))
	}
	m.lossBuf = losses
	fitSpan.F64s("losses", losses).F64("final_loss", losses[len(losses)-1]).End()
	return losses, nil
}

// Predict returns the raw model prediction ŝ(k+1) = f̂_Φ(s(k), a(k)) in
// original (denormalised) units. It panics if the model is untrained.
func (m *Model) Predict(state, action []float64) []float64 {
	out := make([]float64, m.cfg.StateDim)
	m.PredictTo(out, state, action)
	return out
}

// PredictTo is Predict writing into dst.
func (m *Model) PredictTo(dst, state, action []float64) {
	if m.inNorm == nil {
		panic("envmodel: Predict before Fit")
	}
	if len(state) != m.cfg.StateDim || len(action) != m.cfg.ActionDim {
		panic(fmt.Sprintf("envmodel: predict dims (%d,%d) != (%d,%d)",
			len(state), len(action), m.cfg.StateDim, m.cfg.ActionDim))
	}
	copy(m.inBuf, state)
	copy(m.inBuf[m.cfg.StateDim:], action)
	m.inNorm.Apply(m.inBuf, m.inBuf)
	pred := m.net.ForwardCache(m.cache, m.inBuf, nil)
	m.outNorm.Invert(dst, pred)
	mat.VecAddScaled(dst, state, 1)
}

// targetTo writes the regression target, the state delta, into dst.
func (m *Model) targetTo(dst []float64, t Transition) {
	for i := range dst {
		dst[i] = t.Next[i] - t.State[i]
	}
}

// fitNormalizers refits inNorm/outNorm, the per-coordinate mean and
// standard deviation of the inputs (state, action) and of the targets (the
// state delta), on the full dataset without materialising a per-row copy
// of it: transitions ascending, dimensions left to right, a mean pass then
// a deviation pass. The statistics are accumulated into the model's
// persistent fitIn/fitOut storage (zeroed first), so refits allocate
// nothing.
func (m *Model) fitNormalizers(d *Dataset) {
	in, out := m.fitIn, m.fitOut
	for _, s := range [][]float64{in.Mean, in.Std, out.Mean, out.Std} {
		for i := range s {
			s[i] = 0
		}
	}
	raw := m.outBuf
	for i := 0; i < d.Len(); i++ {
		t := d.At(i)
		for j, v := range t.State {
			in.Mean[j] += v
		}
		for j, v := range t.Action {
			in.Mean[m.cfg.StateDim+j] += v
		}
		m.targetTo(raw, t)
		for j, v := range raw {
			out.Mean[j] += v
		}
	}
	inv := 1 / float64(d.Len())
	mat.VecScale(in.Mean, inv)
	mat.VecScale(out.Mean, inv)
	for i := 0; i < d.Len(); i++ {
		t := d.At(i)
		for j, v := range t.State {
			dv := v - in.Mean[j]
			in.Std[j] += dv * dv
		}
		for j, v := range t.Action {
			dv := v - in.Mean[m.cfg.StateDim+j]
			in.Std[m.cfg.StateDim+j] += dv * dv
		}
		m.targetTo(raw, t)
		for j, v := range raw {
			dv := v - out.Mean[j]
			out.Std[j] += dv * dv
		}
	}
	for j := range in.Std {
		in.Std[j] = sqrtOr1(in.Std[j] * inv)
	}
	for j := range out.Std {
		out.Std[j] = sqrtOr1(out.Std[j] * inv)
	}
	m.inNorm = in
	m.outNorm = out
}

// TestLoss returns the mean squared one-step prediction error over d in
// original units — the model-accuracy metric behind Fig. 5's fixed-input
// curves.
func (m *Model) TestLoss(d *Dataset) (float64, error) {
	if d.Len() == 0 {
		return 0, fmt.Errorf("envmodel: empty test set")
	}
	pred := make([]float64, m.cfg.StateDim)
	var total float64
	for i := 0; i < d.Len(); i++ {
		t := d.At(i)
		m.PredictTo(pred, t.State, t.Action)
		total += sqDist(pred, t.Next)
	}
	return total / float64(d.Len()), nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Network exposes the underlying network (for serialisation).
func (m *Model) Network() *nn.Network { return m.net }

// RewardOf computes the paper's reward (Eq. 1) for a state vector:
// r = 1 − Σ_j w_j. The model predicts reward "in a similar way" to state
// (§IV-A); since reward is a deterministic function of next state, it is
// derived from the state prediction.
func RewardOf(state []float64) float64 {
	return 1 - mat.VecSum(state)
}
