package rl

import (
	"fmt"
	"math"
	"math/rand"

	"miras/internal/mat"
	"miras/internal/nn"
	"miras/internal/obs"
	"miras/internal/sim"
)

// Environment is what the DDPG agent trains against: either the synthetic
// model-backed environment (MIRAS) or the real emulated cluster (the
// model-free baseline). Actions are points on the probability simplex.
type Environment interface {
	// Reset starts a new episode and returns the initial state.
	Reset() []float64
	// Step applies an action and returns the next state, reward, and
	// whether the episode ended.
	Step(action []float64) (next []float64, reward float64, done bool)
	// StateDim and ActionDim give the observation and action widths.
	StateDim() int
	ActionDim() int
}

// ExplorationKind selects the exploration mechanism.
type ExplorationKind int

const (
	// ParamSpaceNoise perturbs the actor's parameters with adaptive
	// Gaussian noise — the paper's choice (§IV-D): the perturbed policy's
	// softmax output is still a valid simplex, so the budget constraint
	// always holds.
	ParamSpaceNoise ExplorationKind = iota
	// ActionSpaceNoise adds OU noise to the emitted action — the original
	// DDPG scheme, kept for the ablation; perturbed actions are clamped
	// and renormalised to stay on the simplex (without which most of them
	// would violate the constraint, the paper's stated failure mode).
	ActionSpaceNoise
)

// Fixed DDPG hyperparameters: no experiment varies them.
const (
	// gamma is the discount factor.
	gamma = 0.95
	// tau is the target-network soft-update rate.
	tau = 0.01
	// noiseTargetDelta is the action-space distance target δ for adaptive
	// parameter noise.
	noiseTargetDelta = 0.05
	// entropyBonus weights an entropy term added to the actor objective
	// (maximise Q + β·H(π(s))). The softmax actor otherwise saturates to a
	// one-hot allocation early in training and its gradients vanish —
	// starving all but one microservice permanently.
	entropyBonus = 0.05
	// huberDelta is the critic loss transition point between quadratic and
	// linear regimes. Burst states produce rewards two orders of magnitude
	// larger than calm states; Huber keeps those targets from dominating
	// the critic fit.
	huberDelta = 1.0
)

// Config parameterises a DDPG agent. Zero values take the listed defaults.
type Config struct {
	// StateDim and ActionDim are the environment's dimensions. Required.
	StateDim  int
	ActionDim int
	// Hidden lists the actor's hidden-layer widths; the critic mirrors
	// them with the action injected at the second layer, as in §VI-A3.
	// Defaults to {64, 64, 64}; the paper's full-scale runs use
	// {256, 256, 256} (MSD) and {512, 512, 512} (LIGO).
	Hidden []int
	// ActorLR and CriticLR are Adam learning rates (defaults 1e-4, 1e-3).
	ActorLR  float64
	CriticLR float64
	// BatchSize is the update minibatch size (default 64).
	BatchSize int
	// ReplayCapacity bounds the replay buffer (default 100000).
	ReplayCapacity int
	// RewardScale multiplies rewards before critic training; WIP-sum
	// rewards reach the hundreds during bursts, so training uses a small
	// scale (default 0.01).
	RewardScale float64
	// Exploration selects the exploration mechanism (default
	// ParamSpaceNoise, the paper's).
	Exploration ExplorationKind
	// NoiseSigma is the initial parameter-noise σ or the OU σ
	// (default 0.05).
	NoiseSigma float64
	// Seed seeds network initialisation, sampling, and noise.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Hidden == nil {
		c.Hidden = []int{64, 64, 64}
	}
	if c.ActorLR == 0 {
		c.ActorLR = 1e-4
	}
	if c.CriticLR == 0 {
		c.CriticLR = 1e-3
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.ReplayCapacity == 0 {
		c.ReplayCapacity = 100000
	}
	if c.RewardScale == 0 {
		c.RewardScale = 0.01
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 0.05
	}
	return c
}

// DDPG is the deep deterministic policy gradient agent with the paper's
// architecture: a softmax actor μ_Θ producing a consumer-share distribution
// and a critic Q(s, a) receiving the action at its second layer.
type DDPG struct {
	cfg Config

	actor, actorTarget   *nn.Network
	critic, criticTarget *nn.Network
	perturbed            *nn.Network

	actorOpt, criticOpt *nn.Adam
	replay              *ReplayBuffer
	// rng draws from src, a SplitMix64 source whose position is exported
	// into training checkpoints (math/rand's default source hides its
	// state, which would make resumed runs diverge).
	rng *rand.Rand
	src *sim.SplitMix

	pnoise  *ParamNoise
	ounoise *OUNoise

	norm *runningNorm

	// rawNoiseViolations counts ActionSpaceNoise samples that, before
	// simplex projection, were not valid distributions (negative entries
	// or mass ≠ 1) — i.e. the actions the paper's §IV-D calls "invalid
	// exploration". rawNoiseTotal counts all ActionSpaceNoise samples.
	rawNoiseViolations uint64
	rawNoiseTotal      uint64

	// scratch: the minibatch is staged as row-per-sample matrices and run
	// through the networks' batched path (one GEMM per layer per pass).
	batch          []Experience
	actorBC        *nn.BatchCache
	criticBC       *nn.BatchCache
	actorTargetBC  *nn.BatchCache
	criticTargetBC *nn.BatchCache
	actorGrads     *nn.Grads
	criticGrads    *nn.Grads
	bState, bNext  *mat.Matrix
	bAction, bDA   *mat.Matrix
	bDOut, bOnes   *mat.Matrix
	yBuf           []float64
	logBuf         []float64
	updates        uint64

	// logRows holds each replay slot's log-compressed State and Next, slot
	// j's at logRows[2j·StateDim:], so sampled transitions are compressed
	// once, when observed; slots maps the current minibatch to its slots.
	logRows []float64
	slots   []int

	// plainActs and noisyActs are adaptParamNoise's scratch: one action
	// row per minibatch slot for each policy, over the rows of plain and
	// of actorBC's output.
	plain                *mat.Matrix
	plainActs, noisyActs [][]float64

	// cache is Act's and ActExplore's per-sample forward cache, shared by
	// the actor and its perturbed copy (same shape).
	cache *nn.Cache

	// lastCriticLoss and lastMeanQ record the most recent Update's outputs
	// for the divergence health check.
	lastCriticLoss float64
	lastMeanQ      float64

	tracer *obs.Tracer
}

// NewDDPG builds an agent.
func NewDDPG(cfg Config) (*DDPG, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDim <= 0 || cfg.ActionDim <= 0 {
		return nil, fmt.Errorf("rl: dims must be positive, got state=%d action=%d",
			cfg.StateDim, cfg.ActionDim)
	}
	if len(cfg.Hidden) < 2 {
		return nil, fmt.Errorf("rl: need at least 2 hidden layers for second-layer action injection, got %d",
			len(cfg.Hidden))
	}
	src := sim.NewSplitMix(uint64(cfg.Seed))
	rng := rand.New(src)

	actorSizes := append([]int{cfg.StateDim}, cfg.Hidden...)
	actorSizes = append(actorSizes, cfg.ActionDim)
	actor := nn.NewNetwork(nn.Config{
		Sizes: actorSizes, Hidden: nn.Tanh{}, Output: nn.Softmax{}, AuxLayer: -1,
	}, rng)

	criticSizes := append([]int{cfg.StateDim}, cfg.Hidden...)
	criticSizes = append(criticSizes, 1)
	critic := nn.NewNetwork(nn.Config{
		Sizes: criticSizes, Hidden: nn.Tanh{}, Output: nn.Identity{},
		AuxLayer: 1, AuxDim: cfg.ActionDim, // action enters the second layer (§VI-A3)
	}, rng)

	d := &DDPG{
		cfg:          cfg,
		actor:        actor,
		actorTarget:  actor.Clone(),
		critic:       critic,
		criticTarget: critic.Clone(),
		perturbed:    actor.Clone(),
		actorOpt:     nn.NewAdam(actor, cfg.ActorLR),
		criticOpt:    nn.NewAdam(critic, cfg.CriticLR),
		replay:       NewReplayBuffer(cfg.ReplayCapacity),
		rng:          rng,
		src:          src,
		norm:         newRunningNorm(cfg.StateDim),
		batch:        make([]Experience, cfg.BatchSize),
		slots:        make([]int, cfg.BatchSize),
		logBuf:       make([]float64, cfg.StateDim),
		actorGrads:   nn.NewGrads(actor),
		criticGrads:  nn.NewGrads(critic),
	}
	// DDPG-style small uniform init on the output layers (Lillicrap et
	// al. use ±3e-3): the actor starts near the uniform simplex instead of
	// a saturated softmax, and the critic starts near zero value.
	smallFinalLayer(actor, rng)
	smallFinalLayer(critic, rng)
	d.actorTarget.CopyParamsFrom(actor)
	d.criticTarget.CopyParamsFrom(critic)
	d.perturbed.CopyParamsFrom(actor)
	d.cache = nn.NewCache(d.actor)
	d.actorBC = nn.NewBatchCache(d.actor, cfg.BatchSize)
	d.criticBC = nn.NewBatchCache(d.critic, cfg.BatchSize)
	d.actorTargetBC = nn.NewBatchCache(d.actorTarget, cfg.BatchSize)
	d.criticTargetBC = nn.NewBatchCache(d.criticTarget, cfg.BatchSize)
	d.bState = mat.New(cfg.BatchSize, cfg.StateDim)
	d.bNext = mat.New(cfg.BatchSize, cfg.StateDim)
	d.bAction = mat.New(cfg.BatchSize, cfg.ActionDim)
	d.bDA = mat.New(cfg.BatchSize, cfg.ActionDim)
	d.bDOut = mat.New(cfg.BatchSize, 1)
	d.bOnes = mat.New(cfg.BatchSize, 1)
	d.bOnes.Fill(1)
	d.yBuf = make([]float64, 1)
	switch cfg.Exploration {
	case ParamSpaceNoise:
		d.pnoise = NewParamNoise(cfg.NoiseSigma, noiseTargetDelta)
		d.perturbed.PerturbFrom(d.actor, d.pnoise.Sigma, rng)
		d.plain = mat.New(cfg.BatchSize, cfg.ActionDim)
		noisy := d.actorBC.Output()
		for i := 0; i < cfg.BatchSize; i++ {
			d.plainActs = append(d.plainActs, d.plain.Row(i))
			d.noisyActs = append(d.noisyActs, noisy.Row(i))
		}
	case ActionSpaceNoise:
		d.ounoise = NewOUNoise(cfg.ActionDim, cfg.NoiseSigma, rng)
	default:
		return nil, fmt.Errorf("rl: unknown exploration kind %d", cfg.Exploration)
	}
	return d, nil
}

// Config returns the resolved configuration.
func (d *DDPG) Config() Config { return d.cfg }

// SetTracer attaches a tracer; each minibatch update then emits one
// debug-granularity "ddpg.update" span carrying the critic loss, mean Q,
// replay size and noise σ (only when the tracer's sink accepts debug). A
// nil tracer keeps Update allocation-free.
func (d *DDPG) SetTracer(t *obs.Tracer) { d.tracer = t }

// ReplayLen returns the number of stored experiences.
func (d *DDPG) ReplayLen() int { return d.replay.Len() }

// NoiseSigma returns the current parameter-noise σ (0 when not using
// parameter noise).
func (d *DDPG) NoiseSigma() float64 {
	if d.pnoise == nil {
		return 0
	}
	return d.pnoise.Sigma
}

// Act returns the deterministic policy action μ_Θ(s) — a simplex vector,
// newly allocated: the replay keeps actions it is given.
func (d *DDPG) Act(state []float64) []float64 {
	return mat.VecClone(d.actor.ForwardCache(d.cache, d.normalize(state), nil))
}

// ActExplore returns an exploratory action according to the configured
// mechanism. The result is always a valid simplex (non-negative, sums
// to 1).
func (d *DDPG) ActExplore(state []float64) []float64 {
	ns := d.normalize(state)
	if d.cfg.Exploration == ParamSpaceNoise {
		return mat.VecClone(d.perturbed.ForwardCache(d.cache, ns, nil))
	}
	a := mat.VecClone(d.actor.ForwardCache(d.cache, ns, nil))
	noise := d.ounoise.Sample()
	violated := false
	var sum float64
	for i := range a {
		a[i] += noise[i]
		if a[i] < 0 {
			violated = true
		}
		sum += a[i]
	}
	if sum > 1+1e-9 {
		violated = true
	}
	d.rawNoiseTotal++
	if violated {
		d.rawNoiseViolations++
	}
	projectSimplex(a)
	return a
}

// BeginEpisode re-perturbs the exploration policy (parameter noise is
// resampled per episode, per Plappert et al.) and adapts σ from the
// measured action distance on recent states.
func (d *DDPG) BeginEpisode() {
	switch d.cfg.Exploration {
	case ParamSpaceNoise:
		d.adaptParamNoise()
		d.perturbed.PerturbFrom(d.actor, d.pnoise.Sigma, d.rng)
	case ActionSpaceNoise:
		d.ounoise.Reset()
	}
}

// adaptParamNoise measures d(π, π̃) on a replay minibatch and adjusts σ.
// The minibatch's normalised states are staged in bState and run through
// the actor, then the perturbed actor, on the batched path: its rows equal
// per-sample forward passes bit for bit. With fewer stored transitions
// than a batch, the rows past them are left over from the last batch and
// are not read.
func (d *DDPG) adaptParamNoise() {
	if d.replay.Len() == 0 {
		return
	}
	n := d.cfg.BatchSize
	if n > d.replay.Len() {
		n = d.replay.Len()
	}
	slots := d.slots[:n]
	d.replay.sample(d.rng, d.batch[:n], slots)
	for i, slot := range slots {
		d.norm.apply(d.bState.Row(i), d.logState(slot))
	}
	d.plain.CopyFrom(d.actor.ForwardBatch(d.actorBC, d.bState, nil))
	d.perturbed.ForwardBatch(d.actorBC, d.bState, nil)
	d.pnoise.Adapt(ActionDistance(d.plainActs[:n], d.noisyActs[:n]))
}

// Observe stores a transition in the replay buffer, log-compresses its
// State and Next into the slot's logRows, and updates state normalisation
// statistics.
func (d *DDPG) Observe(e Experience) {
	slot := d.replay.add(e)
	d.compressSlot(slot, e)
	d.norm.update(d.logState(slot))
}

// compressSlot writes e's log-compressed State and Next into slot's
// logRows, growing them by one slot when slot is new.
func (d *DDPG) compressSlot(slot int, e Experience) {
	dim := d.cfg.StateDim
	if end := 2 * (slot + 1) * dim; end > len(d.logRows) {
		d.logRows = append(d.logRows, make([]float64, end-len(d.logRows))...)
	}
	logCompress(d.logState(slot), e.State)
	logCompress(d.logNext(slot), e.Next)
}

// logState and logNext return slot's log-compressed State and Next.
func (d *DDPG) logState(slot int) []float64 {
	dim := d.cfg.StateDim
	return d.logRows[2*slot*dim:][:dim]
}

func (d *DDPG) logNext(slot int) []float64 {
	dim := d.cfg.StateDim
	return d.logRows[(2*slot+1)*dim:][:dim]
}

// Update performs one minibatch DDPG update (critic TD regression, actor
// policy-gradient ascent, target soft updates) and returns the critic loss
// and the mean Q-value of the actor's actions (the ascent objective). It
// is a no-op returning zeros until the replay buffer holds one batch.
//
// The whole minibatch runs through the networks' batched path: every
// forward and backward below is one GEMM-shaped pass over a row-per-sample
// matrix, and all staging buffers are preallocated, so the steady-state
// update loop is allocation-free.
func (d *DDPG) Update() (criticLoss, meanQ float64) {
	if d.replay.Len() < d.cfg.BatchSize {
		return 0, 0
	}
	updateSpan := d.tracer.StartDebug("ddpg.update")
	d.replay.sample(d.rng, d.batch, d.slots)
	cfg := d.cfg
	invB := 1 / float64(len(d.batch))

	// Stage the normalised states, next states, and stored actions as
	// batch matrices, from the log-compressed rows Observe kept.
	for i, e := range d.batch {
		slot := d.slots[i]
		d.norm.apply(d.bNext.Row(i), d.logNext(slot))
		d.norm.apply(d.bState.Row(i), d.logState(slot))
		copy(d.bAction.Row(i), e.Action)
	}

	// ---- Critic update: minimise (Q(s,a) − y)² with
	// y = r·scale + γ·Q'(s', μ'(s')).
	targetAction := d.actorTarget.ForwardBatch(d.actorTargetBC, d.bNext, nil)
	nextQ := d.criticTarget.ForwardBatch(d.criticTargetBC, d.bNext, targetAction)
	q := d.critic.ForwardBatch(d.criticBC, d.bState, d.bAction)
	var loss float64
	for i, e := range d.batch {
		d.yBuf[0] = e.Reward*cfg.RewardScale + gamma*nextQ.Row(i)[0]
		loss += nn.HuberLoss(d.bDOut.Row(i), q.Row(i), d.yBuf, huberDelta)
	}
	d.criticGrads.Zero()
	d.critic.BackwardBatch(d.criticBC, d.bDOut, d.criticGrads)
	d.criticGrads.ScaleClip(invB, 5)
	d.criticOpt.Step(d.criticGrads)
	criticLoss = loss * invB

	// ---- Actor update: ascend ∇_Θ μ_Θ(s) · ∇_a Q(s, a)|_{a=μ(s)}.
	action := d.actor.ForwardBatch(d.actorBC, d.bState, nil)
	actorQ := d.critic.ForwardBatch(d.criticBC, d.bState, action)
	var qSum float64
	for i := 0; i < actorQ.Rows; i++ {
		qSum += actorQ.Row(i)[0]
	}
	// ∂Q/∂a via the critic's aux-input gradient alone: no critic parameter
	// gradients and nothing below the action-injection layer.
	dAction := d.critic.AuxGradBatch(d.criticBC, d.bOnes)
	// Minimise −(Q + β·H(π)) ⇒ dOut_i = (−∂Q/∂a_i + β(log a_i + 1))/N.
	// The entropy term's gradient ∂H/∂a_i = −(log a_i + 1).
	//
	// ∂Q/∂a is normalised to unit L2 per sample before use: the critic
	// restricted to the simplex is close to linear, so its raw action
	// gradient points at a vertex with unbounded magnitude, saturating
	// the softmax long before the critic's value estimates are
	// trustworthy. Direction-only ascent (cf. the inverting-gradients
	// treatment of bounded action spaces) keeps the entropy term
	// commensurate at every Q scale.
	for i := 0; i < d.bDA.Rows; i++ {
		dA := d.bDA.Row(i)
		copy(dA, dAction.Row(i))
		if n := mat.VecNorm(dA); n > 1 {
			mat.VecScale(dA, 1/n)
		}
		mat.VecScale(dA, -1)
		for j, aj := range action.Row(i) {
			if aj < 1e-8 {
				aj = 1e-8
			}
			dA[j] += entropyBonus * (math.Log(aj) + 1)
		}
		mat.VecScale(dA, invB)
	}
	d.actorGrads.Zero()
	d.actor.BackwardBatch(d.actorBC, d.bDA, d.actorGrads)
	d.actorGrads.ScaleClip(1, 5)
	d.actorOpt.Step(d.actorGrads)
	meanQ = qSum * invB

	// ---- Target soft updates.
	d.actorTarget.SoftUpdateFrom(d.actor, tau)
	d.criticTarget.SoftUpdateFrom(d.critic, tau)
	d.updates++
	d.lastCriticLoss, d.lastMeanQ = criticLoss, meanQ
	updateSpan.Uint("update", d.updates).
		F64("critic_loss", criticLoss).
		F64("mean_q", meanQ).
		Int("replay", d.replay.Len()).
		F64("sigma", d.NoiseSigma()).
		End()
	return criticLoss, meanQ
}

// Updates returns the number of completed minibatch updates.
func (d *DDPG) Updates() uint64 { return d.updates }

// RawNoiseViolations reports how many ActionSpaceNoise exploration samples
// were invalid before projection, out of how many drawn — quantifying the
// §IV-D "invalid exploration" failure mode that parameter-space noise
// avoids by construction.
func (d *DDPG) RawNoiseViolations() (violations, total uint64) {
	return d.rawNoiseViolations, d.rawNoiseTotal
}

// Actor returns the current deterministic policy network.
func (d *DDPG) Actor() *nn.Network { return d.actor }

// Critic returns the current value network. Exposed for the training
// guard's health probes (and their tests, which poison it deliberately).
func (d *DDPG) Critic() *nn.Network { return d.critic }

// RestoreActorParams overwrites the policy (and its target and perturbed
// copies) with src's parameters. The MIRAS agent uses it to roll back to
// the best-evaluating policy at the end of training.
func (d *DDPG) RestoreActorParams(src *nn.Network) {
	d.actor.CopyParamsFrom(src)
	d.actorTarget.CopyParamsFrom(src)
	d.perturbed.CopyParamsFrom(src)
}

// normalize returns the state standardised by the running statistics.
// States pass through log1p first: WIP coordinates span four orders of
// magnitude between idle and burst conditions, and a linear standardiser
// would leave the calm regime with no resolution.
func (d *DDPG) normalize(state []float64) []float64 {
	x := logCompress(d.logBuf, state)
	return d.norm.apply(x, x)
}

// logCompress writes log(1+x) per coordinate into dst (clamping negatives
// to 0) and returns dst.
func logCompress(dst, x []float64) []float64 {
	for i, v := range x {
		if v < 0 {
			v = 0
		}
		dst[i] = math.Log1p(v)
	}
	return dst
}

// smallFinalLayer reinitialises a network's output layer with uniform
// ±3e-3 weights and zero bias.
func smallFinalLayer(n *nn.Network, rng *rand.Rand) {
	last := n.Layers[len(n.Layers)-1]
	for i := range last.W.Data {
		last.W.Data[i] = (rng.Float64()*2 - 1) * 3e-3
	}
	for i := range last.B {
		last.B[i] = 0
	}
}

// projectSimplex clamps negatives to zero and renormalises so the vector is
// a valid categorical distribution; a degenerate all-zero vector becomes
// uniform.
func projectSimplex(a []float64) {
	var sum float64
	for i, v := range a {
		if v < 0 {
			a[i] = 0
		} else {
			sum += v
		}
	}
	if sum <= 0 {
		for i := range a {
			a[i] = 1 / float64(len(a))
		}
		return
	}
	mat.VecScale(a, 1/sum)
}

// runningNorm keeps Welford running mean/variance per state coordinate.
type runningNorm struct {
	count float64
	mean  []float64
	m2    []float64
}

func newRunningNorm(dim int) *runningNorm {
	return &runningNorm{
		mean: make([]float64, dim),
		m2:   make([]float64, dim),
	}
}

func (r *runningNorm) update(x []float64) {
	r.count++
	for i, v := range x {
		delta := v - r.mean[i]
		r.mean[i] += delta / r.count
		r.m2[i] += delta * (v - r.mean[i])
	}
}

// apply writes x standardised into dst, which may be x itself, and
// returns dst.
func (r *runningNorm) apply(dst, x []float64) []float64 {
	if r.count < 2 {
		copy(dst, x)
		return dst
	}
	for i, v := range x {
		std := math.Sqrt(r.m2[i] / r.count)
		if std < 1e-6 {
			std = 1
		}
		dst[i] = (v - r.mean[i]) / std
	}
	return dst
}
