package stats

// Online accumulates a running mean and maximum. The zero value is
// ready to use.
type Online struct {
	n    int64
	mean float64
	max  float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 || x > o.max {
		o.max = x
	}
	o.mean += (x - o.mean) / float64(o.n)
}

// Mean returns the sample mean, or 0 with no samples.
func (o *Online) Mean() float64 { return o.mean }

// Max returns the largest sample seen, or 0 with no samples.
func (o *Online) Max() float64 { return o.max }
