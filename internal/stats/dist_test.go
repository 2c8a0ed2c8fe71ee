package stats

import (
	"math"
	"testing"
)

func sampleMean(d Dist, r *RNG, n int) float64 {
	var o Online
	for i := 0; i < n; i++ {
		o.Add(d.Sample(r))
	}
	return o.Mean()
}

// moments returns the sample mean and standard deviation of xs.
func moments(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

func TestConstant(t *testing.T) {
	d := Constant{V: 4.5}
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 4.5 {
			t.Fatal("Constant sampled a different value")
		}
	}
}

func TestUniformBoundsAndMean(t *testing.T) {
	d := Uniform{Lo: 2, Hi: 6}
	r := NewRNG(2)
	for i := 0; i < 10000; i++ {
		v := d.Sample(r)
		if v < 2 || v >= 6 {
			t.Fatalf("uniform sample %v out of [2,6)", v)
		}
	}
	if m := sampleMean(d, r, 100000); math.Abs(m-4) > 0.05 {
		t.Fatalf("uniform mean %.4f, want ~4", m)
	}
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{MeanV: 3}
	r := NewRNG(3)
	if m := sampleMean(d, r, 200000); math.Abs(m-3) > 0.06 {
		t.Fatalf("exponential mean %.4f, want ~3", m)
	}
}

func TestParetoTailAndMean(t *testing.T) {
	d := Pareto{Xm: 1, Alpha: 2.5}
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		if d.Sample(r) < 1 {
			t.Fatal("Pareto sample below scale")
		}
	}
	want := 2.5 / 1.5 // alpha*xm/(alpha-1)
	if m := sampleMean(d, r, 400000); math.Abs(m-want) > 0.05 {
		t.Fatalf("pareto mean %.4f, want ~%.4f", m, want)
	}
}

func TestNormalMoments(t *testing.T) {
	d := Normal{Mu: -2, Sigma: 0.5}
	r := NewRNG(5)
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	mean, std := moments(xs)
	if math.Abs(mean+2) > 0.01 {
		t.Fatalf("normal mean %.4f", mean)
	}
	if math.Abs(std-0.5) > 0.01 {
		t.Fatalf("normal std %.4f", std)
	}
}
