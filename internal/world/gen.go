package world

import (
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// Generators synthesize world-plane activity. Each generator owns a forked
// RNG stream so that adding one never perturbs another's randomness.

// Repeat schedules fn at inter-arrival gaps drawn from gap (in
// microseconds) until the horizon. fn runs at the drawn instants; the
// first arrival is one gap after start.
func Repeat(eng *sim.Engine, r *stats.RNG, gap stats.Dist, start, horizon sim.Time, fn func(now sim.Time)) {
	var schedule func(from sim.Time)
	schedule = func(from sim.Time) {
		d := sim.Duration(gap.Sample(r))
		if d < 1 {
			d = 1
		}
		next := from + d
		if next > horizon {
			return
		}
		eng.At(next, func(now sim.Time) {
			fn(now)
			schedule(now)
		})
	}
	schedule(start)
}

// Toggler flips an object attribute between 0 and 1 with separate mean
// dwell times in each phase — the canonical on/off local predicate
// workload ("motion detected", "lights off").
type Toggler struct {
	Obj      int
	Attr     string
	MeanHigh sim.Duration // mean dwell at 1
	MeanLow  sim.Duration // mean dwell at 0
}

// Install starts the toggler on w until the horizon. The attribute starts
// low and first rises after an exponential low dwell.
func (tg Toggler) Install(w *World, horizon sim.Time) {
	tg.InstallWith(w, w.rng.Fork(), horizon)
}

// InstallWith is Install with an explicit random stream. Sharded runs use
// it with per-sensor streams forked from a workload root: the world's own
// RNG is forked from its shard's engine, so its draw order depends on the
// partitioning, while an explicit per-entity stream is shard-count
// invariant.
func (tg Toggler) InstallWith(w *World, r *stats.RNG, horizon sim.Time) {
	var flip func(now sim.Time)
	flip = func(now sim.Time) {
		cur := w.Get(tg.Obj, tg.Attr)
		var next float64
		var dwell sim.Duration
		if cur == 0 {
			next = 1
			dwell = tg.MeanHigh
		} else {
			next = 0
			dwell = tg.MeanLow
		}
		w.Set(tg.Obj, tg.Attr, next)
		d := sim.Duration(stats.Exponential{MeanV: float64(dwell)}.Sample(r))
		if d < 1 {
			d = 1
		}
		if now+d <= horizon {
			w.eng.At(now+d, flip)
		}
	}
	first := sim.Duration(stats.Exponential{MeanV: float64(tg.MeanLow)}.Sample(r))
	if first < 1 {
		first = 1
	}
	if first <= horizon {
		w.eng.At(first, flip)
	}
}

// RandomWalk makes an attribute perform a ±Step random walk, optionally
// clamped to [Min, Max], at exponential intervals with the given mean.
type RandomWalk struct {
	Obj      int
	Attr     string
	Step     float64
	Min, Max float64 // ignored when Min == Max
	MeanGap  sim.Duration
}

// Install starts the walk on w until the horizon.
func (rw RandomWalk) Install(w *World, horizon sim.Time) {
	r := w.rng.Fork()
	Repeat(w.eng, r, stats.Exponential{MeanV: float64(rw.MeanGap)}, 0, horizon,
		func(sim.Time) {
			v := w.Get(rw.Obj, rw.Attr)
			if r.Bool(0.5) {
				v += rw.Step
			} else {
				v -= rw.Step
			}
			if rw.Min != rw.Max {
				if v < rw.Min {
					v = rw.Min
				}
				if v > rw.Max {
					v = rw.Max
				}
			}
			w.Set(rw.Obj, rw.Attr, v)
		})
}
