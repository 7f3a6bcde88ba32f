package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Streams derives independent, reproducible random-number streams from a
// single experiment seed. Each named component (arrival process, service
// times, exploration noise, …) gets its own stream so that, for example,
// changing the controller's exploration draws does not perturb the arrival
// trace — a prerequisite for paired comparisons between algorithms.
type Streams struct {
	seed int64
}

// NewStreams returns a stream factory rooted at seed.
func NewStreams(seed int64) *Streams { return &Streams{seed: seed} }

// Stream returns a fresh *rand.Rand for the named component. Calling Stream
// twice with the same name yields two generators with identical sequences.
func (s *Streams) Stream(name string) *rand.Rand {
	h := fnv.New64a()
	// The hash of the name is mixed with the root seed; FNV keeps this
	// stdlib-only and stable across runs and platforms.
	_, _ = h.Write([]byte(name))
	mixed := int64(h.Sum64() ^ (uint64(s.seed) * 0x9E3779B97F4A7C15))
	return rand.New(rand.NewSource(mixed))
}

// Seed returns the root seed the factory was built from.
func (s *Streams) Seed() int64 { return s.seed }

// LogNormal is a log-normal distribution with a fixed coefficient of
// variation (stddev/mean) of the *resulting* distribution; each draw names
// its mean. Service times in the cluster emulation are log-normal: strictly
// positive and right-skewed, matching the paper's observation that task
// processing time varies with input data size. NewLogNormal computes the
// shape terms once, so a draw costs one log, one exp and one normal variate.
// The zero LogNormal has cv 0: every draw returns its mean and consumes no
// randomness.
type LogNormal struct {
	sigma      float64 // σ of the underlying normal
	halfSigma2 float64 // σ²/2
	random     bool    // cv > 0, even where σ rounds to 0: such a draw still consumes z
}

// NewLogNormal returns the log-normal distribution with coefficient of
// variation cv, which must be non-negative and small enough that cv² is
// finite.
func NewLogNormal(cv float64) LogNormal {
	if !(cv >= 0) || math.IsInf(cv*cv, 1) {
		panic(fmt.Sprintf("sim: LogNormal cv %g must be non-negative with a finite square", cv))
	}
	if cv == 0 {
		return LogNormal{}
	}
	sigma2 := math.Log(1 + cv*cv)
	return LogNormal{sigma: math.Sqrt(sigma2), halfSigma2: sigma2 / 2, random: true}
}

// Draw returns a variate with the given positive mean: exp(μ + σ·z) with
// μ = ln(mean) − σ²/2 and z one standard normal draw from rng.
func (d LogNormal) Draw(rng *rand.Rand, mean float64) float64 {
	if !d.random {
		return mean
	}
	mu := math.Log(mean) - d.halfSigma2
	return math.Exp(mu + d.sigma*rng.NormFloat64())
}

// Exponential draws an exponential variate with the given mean.
func Exponential(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		panic("sim: Exponential mean must be positive")
	}
	return rng.ExpFloat64() * mean
}

// Uniform draws uniformly from [lo, hi).
func Uniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi < lo {
		panic("sim: Uniform with hi < lo")
	}
	return lo + rng.Float64()*(hi-lo)
}

// Poisson draws a Poisson variate with the given mean using Knuth's method
// for small means and a normal approximation above 30 (adequate for window
// arrival counts).
func Poisson(rng *rand.Rand, mean float64) int {
	if mean < 0 {
		panic("sim: Poisson mean must be non-negative")
	}
	if mean == 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
