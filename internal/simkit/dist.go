package simkit

import (
	"math"
	"math/rand"
)

// Dist is a sampleable distribution over float64. Distributions carry no
// RNG state of their own; the caller supplies the *rand.Rand so experiments
// stay deterministic and independent streams stay independent.
type Dist interface {
	Sample(r *rand.Rand) float64
	Mean() float64
}

// Constant is a degenerate distribution that always yields V.
type Constant struct{ V float64 }

// Sample returns the constant value.
func (c Constant) Sample(*rand.Rand) float64 { return c.V }

// Mean returns the constant value.
func (c Constant) Mean() float64 { return c.V }

// Uniform samples uniformly from [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample draws a uniform variate.
func (u Uniform) Sample(r *rand.Rand) float64 { return u.Lo + r.Float64()*(u.Hi-u.Lo) }

// Mean returns the midpoint of the interval.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Exponential samples an exponential with the given mean (not rate).
type Exponential struct{ MeanVal float64 }

// Sample draws an exponential variate.
func (e Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() * e.MeanVal }

// Mean returns the configured mean.
func (e Exponential) Mean() float64 { return e.MeanVal }

// Lognormal samples exp(N(Mu, Sigma^2)). It models the right-skewed latency
// distributions measured in the paper's Table 1 (mean slightly above median,
// occasional large maxima).
type Lognormal struct{ Mu, Sigma float64 }

// Sample draws a lognormal variate.
func (l Lognormal) Sample(r *rand.Rand) float64 {
	return math.Exp(r.NormFloat64()*l.Sigma + l.Mu)
}

// Mean returns exp(mu + sigma^2/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Pareto samples a Pareto(Scale, Alpha) heavy-tailed variate with support
// [Scale, inf). Alpha must exceed 0; means only exist for Alpha > 1.
// It models spot price spike magnitudes (Figure 6b's long jump tail).
type Pareto struct {
	Scale float64 // minimum value
	Alpha float64 // tail index; smaller = heavier tail
}

// Sample draws a Pareto variate via inverse transform.
func (p Pareto) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return p.Scale / math.Pow(u, 1/p.Alpha)
}

// Mean returns alpha*scale/(alpha-1), or +Inf when alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Scale / (p.Alpha - 1)
}

// Clamped restricts an inner distribution to [Lo, Hi] by clamping samples.
// Table 1 reports min/max alongside median/mean; clamping keeps simulated
// latencies inside the observed envelope.
type Clamped struct {
	Inner  Dist
	Lo, Hi float64
}

// Sample draws from the inner distribution and clamps into [Lo, Hi].
func (c Clamped) Sample(r *rand.Rand) float64 {
	v := c.Inner.Sample(r)
	if v < c.Lo {
		return c.Lo
	}
	if v > c.Hi {
		return c.Hi
	}
	return v
}

// Mean returns the inner mean clamped into [Lo, Hi]; an approximation that
// is good enough for reporting since clamping is rare by construction.
func (c Clamped) Mean() float64 {
	m := c.Inner.Mean()
	if m < c.Lo {
		return c.Lo
	}
	if m > c.Hi {
		return c.Hi
	}
	return m
}

// SampleSeconds draws from d and converts the value (interpreted as seconds)
// to virtual time, never returning a negative duration: a negative or NaN
// sample is 0, and one past Time's range is the largest Time.
func SampleSeconds(d Dist, r *rand.Rand) Time {
	v := d.Sample(r)
	switch {
	case !(v > 0):
		return 0
	case v*float64(Second) >= float64(maxTime):
		return maxTime
	}
	return Seconds(v)
}
