package main

import (
	"fmt"
	"reflect"
	"time"

	"pervasive/internal/scenario"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

const workloadDescription = "workload layer: statistical generator materialization throughput, " +
	"delta-coded trace codec bandwidth and density, and record->replay overhead " +
	"of scenario runs driven from decoded traces. Codec rows round-trip and " +
	"compare digests; replay rows compare detection output against the " +
	"generated baseline."

type workloadGenRow struct {
	Name    string  `json:"name"`
	Events  int     `json:"events"`
	WallMs  float64 `json:"wall_ms"`
	PerSec  float64 `json:"events_per_sec"`
	Horizon string  `json:"horizon"`
}

type workloadCodecRow struct {
	Name          string  `json:"name"`
	Events        int     `json:"events"`
	EncodedBytes  int     `json:"encoded_bytes"`
	BytesPerEvent float64 `json:"bytes_per_event"`
	EncodeMBps    float64 `json:"encode_mb_per_sec"`
	DecodeMBps    float64 `json:"decode_mb_per_sec"`
	// Identical is the round-trip check: decode(encode(evs)) digest.
	Identical bool `json:"roundtrip_identical"`
}

type workloadReplayRow struct {
	Scenario string `json:"scenario"`
	Events   int    `json:"events"`
	// GenerateWallMs runs the scenario from its generators; ReplayWallMs
	// runs it from the decoded trace (codec time included).
	GenerateWallMs float64 `json:"generate_wall_ms"`
	ReplayWallMs   float64 `json:"replay_wall_ms"`
	ReplayRatio    float64 `json:"replay_ratio"`
	// Identical compares the replayed run's detection output (and world
	// log where the scenario exposes one) against the generated baseline.
	Identical bool `json:"identical_output"`
}

type workloadReport struct {
	stamp
	Generators []workloadGenRow    `json:"generator_throughput"`
	Codec      []workloadCodecRow  `json:"codec"`
	Replay     []workloadReplayRow `json:"record_replay"`

	// IntegralBytesPerEvent is the codec density on the integral hall
	// stream (bar: < 8 — the format's point over raw 20-byte records).
	IntegralBytesPerEvent float64 `json:"integral_bytes_per_event"`
	DensityPass           bool    `json:"density_pass"`
	// MaxReplayRatio is the worst replay/generate wall ratio (bar: < 1.25
	// — replaying a trace must not cost materially more than generating).
	MaxReplayRatio float64 `json:"max_replay_ratio"`
	ReplayPass     bool    `json:"replay_pass"`
	IdenticalAll   bool    `json:"identical_everywhere"`
	Notes          string  `json:"notes"`
}

// roundTrip encodes evs as a trace and decodes it again. The input is
// the encoder's own output, so a decode error is a codec bug.
func roundTrip(horizon sim.Time, evs []workload.Event) []workload.Event {
	dec, err := workload.Decode((&workload.Trace{Horizon: horizon, Events: evs}).Encode())
	if err != nil {
		panic(err)
	}
	return dec.Events
}

func runWorkload(st stamp) (any, string) {
	r := workloadReport{stamp: st, IdenticalAll: true}

	// --- generator materialization throughput ---
	type genCase struct {
		name    string
		horizon sim.Time
		src     workload.Source
	}
	cohortObjs := make([]int, 32)
	for i := range cohortObjs {
		cohortObjs[i] = i
	}
	cases := []genCase{
		{"toggler-4096", 60 * sim.Second, workload.TogglerFleet{
			Seed: 1, N: 4096, Attr: "p",
			MeanHigh: 800 * sim.Millisecond, MeanLow: 1500 * sim.Millisecond}},
		{"hall-64-doors", 10 * sim.Minute, workload.HallTraffic{
			Seed: 2, Doors: 64, MeanArrival: 2 * sim.Millisecond,
			MeanStay: 20 * sim.Second, InitialOccupancy: 500}},
		{"diurnal", 30 * sim.Minute, workload.Diurnal{
			Seed: 3, Attr: "p", MeanGap: 5 * sim.Millisecond, Amp: 0.8,
			Period: sim.Minute, Harmonics: 3, Width: 2 * sim.Millisecond}},
		{"pareto-bursts", 30 * sim.Minute, workload.ParetoBursts{
			Seed: 4, Attr: "p", MeanBurstGap: 200 * sim.Millisecond,
			Xm: 2, Alpha: 1.1, PulseGap: 3 * sim.Millisecond, Width: sim.Millisecond}},
		{"cohort-32", 2 * sim.Minute, workload.Cohort{
			Seed: 5, Objs: cohortObjs, Attr: "p", MeanGap: 10 * sim.Millisecond,
			Width: 5 * sim.Millisecond, Rho: 0.7, Lag: 2 * sim.Millisecond,
			Jitter: sim.Millisecond}},
		{"mobility-walk", 60 * sim.Minute, workload.MobilityWalk{
			Seed: 6, W: 200, H: 100, Speed: 1.4, Tick: 20 * sim.Millisecond}},
	}
	for _, c := range cases {
		start := time.Now()
		evs := c.src.Events(c.horizon)
		wall := time.Since(start)
		row := workloadGenRow{
			Name: c.name, Events: len(evs), WallMs: ms(wall),
			PerSec:  float64(len(evs)) / wall.Seconds(),
			Horizon: c.horizon.String(),
		}
		r.Generators = append(r.Generators, row)
		progress("gen %-14s %8d events in %6.1fms (%.0f ev/s)",
			c.name, row.Events, row.WallMs, row.PerSec)
	}

	// --- codec bandwidth and density ---
	codecCases := []genCase{
		cases[0], // toggler: integral 0/1 values, the dense-delta fast path
		cases[1], // hall: integral counters
		cases[5], // walk: raw float64 positions, the 8-byte fallback path
	}
	for _, c := range codecCases {
		evs := c.src.Events(c.horizon)
		tr := &workload.Trace{Horizon: c.horizon, Events: evs}
		start := time.Now()
		data := tr.Encode()
		encWall := time.Since(start)
		start = time.Now()
		dec, err := workload.Decode(data)
		decWall := time.Since(start)
		if err != nil {
			panic(err)
		}
		mb := float64(len(data)) / (1 << 20)
		row := workloadCodecRow{
			Name: c.name, Events: len(evs), EncodedBytes: len(data),
			BytesPerEvent: float64(len(data)) / float64(len(evs)),
			EncodeMBps:    mb / encWall.Seconds(),
			DecodeMBps:    mb / decWall.Seconds(),
			Identical:     workload.Digest(dec.Events) == workload.Digest(evs),
		}
		if !row.Identical {
			r.IdenticalAll = false
		}
		r.Codec = append(r.Codec, row)
		progress("codec %-14s %.1f B/event, enc %.0f MB/s, dec %.0f MB/s, identical=%v",
			c.name, row.BytesPerEvent, row.EncodeMBps, row.DecodeMBps, row.Identical)
		if c.name == "hall-64-doors" {
			r.IntegralBytesPerEvent = row.BytesPerEvent
		}
	}
	r.DensityPass = r.IntegralBytesPerEvent < 8

	// --- record -> replay overhead ---
	hallCfg := scenario.HallConfig{
		Seed: 1, Doors: 8, Capacity: 60, MeanArrival: 50 * sim.Millisecond,
		MeanStay: 5 * sim.Second, Horizon: 2 * sim.Minute, InitialOccupancy: 50,
	}
	start := time.Now()
	hallA := scenario.NewHall(hallCfg)
	resA := hallA.Run()
	hallGen := time.Since(start)
	logA := workload.LogDigest(hallA.Harness.World.Log())

	start = time.Now()
	hallCfg.Workload = workload.EventSource(roundTrip(hallCfg.Horizon, hallA.Events))
	hallB := scenario.NewHall(hallCfg)
	resB := hallB.Run()
	hallRep := time.Since(start)
	r.Replay = append(r.Replay, workloadReplayRow{
		Scenario: "hall", Events: len(hallA.Events),
		GenerateWallMs: ms(hallGen), ReplayWallMs: ms(hallRep),
		ReplayRatio: hallRep.Seconds() / hallGen.Seconds(),
		Identical: logA == workload.LogDigest(hallB.Harness.World.Log()) &&
			reflect.DeepEqual(resA.Occurrences, resB.Occurrences) &&
			resA.Confusion == resB.Confusion,
	})

	scaleCfg := scenario.ScaleConfig{Seed: 2, N: 2048, Shards: 4, Horizon: 10 * sim.Second}
	start = time.Now()
	scA := scenario.NewScale(scaleCfg)
	sresA := scA.Run()
	scaleGen := time.Since(start)

	start = time.Now()
	scaleCfg.Workload = workload.EventSource(roundTrip(scaleCfg.Horizon, scA.Harness.Events))
	scB := scenario.NewScale(scaleCfg)
	sresB := scB.Run()
	scaleRep := time.Since(start)
	r.Replay = append(r.Replay, workloadReplayRow{
		Scenario: "scale-2048x4", Events: len(scA.Harness.Events),
		GenerateWallMs: ms(scaleGen), ReplayWallMs: ms(scaleRep),
		ReplayRatio: scaleRep.Seconds() / scaleGen.Seconds(),
		Identical: reflect.DeepEqual(sresA.Occurrences, sresB.Occurrences) &&
			sresA.Confusion == sresB.Confusion &&
			reflect.DeepEqual(scA.Harness.CounterLines(), scB.Harness.CounterLines()),
	})

	for _, rr := range r.Replay {
		progress("replay %s: gen %.1fms, replay %.1fms (%.2fx), identical=%v",
			rr.Scenario, rr.GenerateWallMs, rr.ReplayWallMs, rr.ReplayRatio, rr.Identical)
		r.MaxReplayRatio = max(r.MaxReplayRatio, rr.ReplayRatio)
		if !rr.Identical {
			r.IdenticalAll = false
		}
	}
	r.ReplayPass = r.MaxReplayRatio < 1.25

	r.Notes = fmt.Sprintf(
		"The trace format delta-codes (time, object, value) per (object, attr) "+
			"stream with uvarint/zigzag, falling back to raw 8-byte floats for "+
			"non-integral values: %.1f B/event on the integral hall stream "+
			"(bar: <8 vs the 20-byte raw record). Replay swaps generator "+
			"materialization for trace decoding on the identical Install path, so "+
			"the worst overhead is %.2fx wall (bar: <1.25x). Round-trip and "+
			"replay-output identity on every row: %v.",
		r.IntegralBytesPerEvent, r.MaxReplayRatio, r.IdenticalAll)

	return r, fmt.Sprintf("%.1f B/event integral; worst replay %.2fx; identical=%v",
		r.IntegralBytesPerEvent, r.MaxReplayRatio, r.IdenticalAll)
}
