package stats

import "math"

// Dist is a real-valued probability distribution that can be sampled with
// an explicit generator, keeping sampling deterministic per stream.
type Dist interface {
	// Sample draws one variate.
	Sample(r *RNG) float64
}

// Constant is a degenerate distribution that always returns V.
type Constant struct{ V float64 }

// Sample implements Dist.
func (c Constant) Sample(*RNG) float64 { return c.V }

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Exponential is the exponential distribution with the given mean
// (i.e. rate = 1/Mean). It models Poisson inter-arrival times.
type Exponential struct{ MeanV float64 }

// Sample implements Dist.
func (e Exponential) Sample(r *RNG) float64 { return e.MeanV * r.ExpFloat64() }

// Pareto is a heavy-tailed Pareto distribution with scale Xm > 0 and shape
// Alpha > 0. For Alpha <= 1 the mean is infinite; it models the
// "asynchronous unbounded" worst-case delay regime.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample implements Dist.
func (p Pareto) Sample(r *RNG) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return p.Xm / math.Pow(u, 1/p.Alpha)
		}
	}
}

// Normal is the normal distribution with the given mean and standard
// deviation. Sampling is not truncated; callers that need non-negative
// values (e.g. delays) should clamp.
type Normal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (n Normal) Sample(r *RNG) float64 { return n.Mu + n.Sigma*r.NormFloat64() }
