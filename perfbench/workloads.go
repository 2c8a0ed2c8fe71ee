package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"pervasive/internal/core"
	"pervasive/internal/experiments"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/runner"
	"pervasive/internal/scenario"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/workload"
	"pervasive/internal/world"
)

// workers is the closed loop's goroutine budget. It is fixed at two, not
// read from the host, so that figures from different hosts measure the
// same work.
const workers = 2

// A workload is one set of inputs the benchmark runs. setup materializes
// the inputs from the seed and wires the harness; the returned instance's
// run is the timed phase.
type workloadDef struct {
	name, why string
	params    func(smoke bool) any
	setup     func(spec childSpec, reg *obs.Registry) (instance, error)
}

// instance is one wired run.
type instance interface {
	run()
	// check verifies the run's output and records its digest and counters.
	check(r *childResult) error
}

var workloads = []workloadDef{
	{
		name: "scale",
		why: "the paper's large-deployment regime: 65,536 sensors on the sharded kernel, sparse clocks " +
			"and the checker tree, many processes with few events each",
		params: func(smoke bool) any { return scaleFor(smoke) },
		setup:  setupScale,
	},
	{
		name: "hall",
		why: "the section 5 exhibition hall: few processes with many events each on the single-heap " +
			"engine, dense vector clocks and the flat checker",
		params: func(smoke bool) any { return hallFor(smoke) },
		setup:  setupHall,
	},
	{
		name: "suite",
		why: "the paper-table reproduction users run: hundreds of short harness runs through the " +
			"runner pool, lattice, clock sync and every detector",
		params: func(smoke bool) any { return suiteFor(smoke) },
		setup:  setupSuite,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scaleParams sizes the scale workload.
type scaleParams struct {
	Sensors       int     `json:"sensors"`
	Shards        int     `json:"shards"`
	Workers       int     `json:"workers"`
	CheckerFanout int     `json:"checker_fanout"`
	DeltaMs       int     `json:"delta_ms"`
	HorizonS      float64 `json:"horizon_s"`
	MeanHighMs    int     `json:"mean_high_ms"`
	MeanLowMs     int     `json:"mean_low_ms"`
}

func scaleFor(smoke bool) scaleParams {
	p := scaleParams{Sensors: 65536, Shards: 8, Workers: workers, CheckerFanout: 16,
		DeltaMs: 5, HorizonS: 2, MeanHighMs: 1200, MeanLowMs: 400}
	if smoke {
		p.Sensors, p.HorizonS = 4096, 1
	}
	return p
}

type scaleRun struct {
	gen    time.Duration
	events []workload.Event
	sc     *scenario.Scale
	res    core.ShardedResults
	codec  bool
}

// setupScale generates the toggler fleet's events and wires the sharded
// harness. The reference role runs the same inputs on one shard and one
// worker, the single-heap path of the sharded kernel.
func setupScale(spec childSpec, reg *obs.Registry) (instance, error) {
	p := scaleFor(spec.Smoke)
	if spec.Role == roleRef {
		p.Shards, p.Workers = 1, 1
	}
	if spec.Workers > 0 {
		p.Workers = spec.Workers
	}
	horizon := sim.Time(p.HorizonS * float64(sim.Second))
	start := time.Now()
	evs := workload.TogglerFleet{
		Seed: workload.DeriveSeed(spec.Seed, 0x2), N: p.Sensors, Attr: "p",
		MeanHigh: sim.Duration(p.MeanHighMs) * sim.Millisecond,
		MeanLow:  sim.Duration(p.MeanLowMs) * sim.Millisecond,
	}.Events(horizon)
	gen := time.Since(start)
	sc := scenario.NewScale(scenario.ScaleConfig{
		Seed: spec.Seed, N: p.Sensors, Shards: p.Shards, Workers: p.Workers,
		Delay:   sim.NewDeltaBounded(sim.Duration(p.DeltaMs) * sim.Millisecond),
		Horizon: horizon, CheckerFanout: p.CheckerFanout,
		Workload: workload.EventSource(evs), Obs: reg,
	})
	return &scaleRun{gen: gen, events: evs, sc: sc, codec: spec.Role == roleTraced}, nil
}

func (s *scaleRun) run() { s.res = s.sc.Run() }

func (s *scaleRun) check(r *childResult) error {
	res, h := s.res, s.sc.Harness
	if err := checkNet(res.Net); err != nil {
		return err
	}
	r.Digest = digestOf(res.Occurrences, res.Confusion, h.CounterLines())
	r.scored(res.Truth, res.Occurrences, res.Confusion, h.Cfg.Tol)

	sh := h.Sh
	var maxExec uint64
	maxDepth := 0
	for k := 0; k < sh.N(); k++ {
		e := sh.Engine(k)
		maxExec = max(maxExec, e.Executed)
		maxDepth = max(maxDepth, e.MaxHeapDepth)
	}
	events := sh.ExecutedTotal()
	r.set("events", float64(events))
	r.set("sim.events", float64(events))
	r.set("sim.epochs", float64(sh.Epochs))
	r.set("sim.events_per_epoch", ratio(float64(events), float64(sh.Epochs)))
	r.set("sim.cross_msgs", float64(sh.CrossSent))
	r.set("sim.max_in_flight", float64(sh.MaxInFlight))
	r.set("sim.shard_imbalance", ratio(float64(maxExec)*float64(sh.N()), float64(events)))
	r.set("sim.heap_max_depth", float64(maxDepth))
	r.netStats(res.Net)
	r.set("clock.state_mb", float64(res.ClockBytes)/(1<<20))
	st := h.Tree.Stat
	r.applied(st.Applied, st.Stale)
	r.set("tree.batches", float64(st.Batches))
	r.set("tree.wire_kb", float64(st.WireBytes)/1024)
	r.set("tree.coalesced_ratio", ratio(float64(st.Coalesced), float64(st.Applied)))
	r.set("tree.sync_lag_ms", ratio(float64(st.SyncLagTotal), float64(st.SyncedProcs))/1000)
	r.generated(s.gen, len(s.events))
	if s.codec {
		return r.codecRoundTrip(s.events, h.Cfg.Horizon)
	}
	return nil
}

// codecRoundTrip times Encode and Decode of the generated stream and checks
// that the decoded stream's digest equals the generated one.
func (r *childResult) codecRoundTrip(evs []workload.Event, horizon sim.Time) error {
	const rounds = 5
	tr := &workload.Trace{Horizon: horizon, Events: evs}
	var data []byte
	start := time.Now()
	for i := 0; i < rounds; i++ {
		data = tr.Encode()
	}
	enc := time.Since(start).Seconds() / rounds
	var back *workload.Trace
	start = time.Now()
	for i := 0; i < rounds; i++ {
		var err error
		if back, err = workload.Decode(data); err != nil {
			return fmt.Errorf("decode of the encoded stream: %w", err)
		}
	}
	dec := time.Since(start).Seconds() / rounds
	if workload.Digest(back.Events) != workload.Digest(evs) {
		return fmt.Errorf("decoded stream digest differs from the generated stream")
	}
	mb := float64(len(data)) / (1 << 20)
	r.set("workload.bytes_per_event", float64(len(data))/float64(len(evs)))
	r.set("workload.encode_mb_per_s", mb/enc)
	r.set("workload.decode_mb_per_s", mb/dec)
	return nil
}

// hallParams sizes the hall workload.
type hallParams struct {
	Doors            int     `json:"doors"`
	Capacity         int     `json:"capacity"`
	InitialOccupancy int     `json:"initial_occupancy"`
	Clocks           string  `json:"clocks"`
	DeltaMs          int     `json:"delta_ms"`
	HorizonH         float64 `json:"horizon_h"`
	MeanArrivalMs    int     `json:"mean_arrival_ms"`
	MeanStayS        int     `json:"mean_stay_s"`
}

func hallFor(smoke bool) hallParams {
	p := hallParams{Doors: 4, Capacity: 200, InitialOccupancy: 195, Clocks: "vector",
		DeltaMs: 100, HorizonH: 24, MeanArrivalMs: 500, MeanStayS: 100}
	if smoke {
		p.HorizonH = 1
	}
	return p
}

type hallRun struct {
	gen    time.Duration
	events []workload.Event
	hall   *scenario.Hall
	res    core.Results
}

// setupHall generates the visitor flow and wires the hall harness. The
// reference role feeds the harness the flow after a round trip through the
// trace codec, which must replay the run byte for byte.
func setupHall(spec childSpec, reg *obs.Registry) (instance, error) {
	p := hallFor(spec.Smoke)
	horizon := sim.Time(p.HorizonH * float64(sim.Hour))
	start := time.Now()
	evs := workload.HallTraffic{
		Seed: workload.DeriveSeed(spec.Seed, 0x2), Doors: p.Doors,
		MeanArrival:      sim.Duration(p.MeanArrivalMs) * sim.Millisecond,
		MeanStay:         sim.Duration(p.MeanStayS) * sim.Second,
		InitialOccupancy: p.InitialOccupancy,
	}.Events(horizon)
	gen := time.Since(start)
	src := evs
	if spec.Role == roleRef {
		back, err := workload.Decode((&workload.Trace{Horizon: horizon, Events: evs}).Encode())
		if err != nil {
			return nil, fmt.Errorf("hall trace round trip: %w", err)
		}
		src = back.Events
	}
	hl := scenario.NewHall(scenario.HallConfig{
		Seed: spec.Seed, Doors: p.Doors, Capacity: p.Capacity,
		InitialOccupancy: p.InitialOccupancy, Kind: core.VectorStrobe,
		Delay:   sim.NewDeltaBounded(sim.Duration(p.DeltaMs) * sim.Millisecond),
		Horizon: horizon, Workload: workload.EventSource(src), Obs: reg,
	})
	return &hallRun{gen: gen, events: evs, hall: hl}, nil
}

func (s *hallRun) run() { s.res = s.hall.Run() }

func (s *hallRun) check(r *childResult) error {
	res, h := s.res, s.hall.Harness
	if err := checkNet(res.Net); err != nil {
		return err
	}
	ck := h.StrobeCk
	lines := []string{
		"checker.applied=" + strconv.FormatInt(ck.Applied, 10),
		"checker.stale=" + strconv.FormatInt(ck.Stale, 10),
		"sim.executed=" + strconv.FormatUint(h.Eng.Executed, 10),
	}
	lines = append(lines, netLines(res.Net)...)
	r.Digest = digestOf(res.Occurrences, res.Confusion, lines)
	r.scored(res.Truth, res.Occurrences, res.Confusion, h.Cfg.Tol)

	r.set("events", float64(h.Eng.Executed))
	r.set("sim.events", float64(h.Eng.Executed))
	r.set("sim.heap_max_depth", float64(h.Eng.MaxHeapDepth))
	r.netStats(res.Net)
	var clockBytes int
	for _, sn := range h.Sensors {
		clockBytes += sn.ClockStateBytes()
	}
	r.set("clock.state_mb", float64(clockBytes)/(1<<20))
	r.applied(ck.Applied, ck.Stale)
	r.generated(s.gen, len(s.events))
	return nil
}

// suiteParams sizes the suite workload.
type suiteParams struct {
	Experiments []string `json:"experiments"`
	Parallelism int      `json:"parallelism"`
	Quick       bool     `json:"quick"`
}

func suiteFor(smoke bool) suiteParams {
	return suiteParams{Experiments: suiteIDs, Parallelism: workers, Quick: smoke}
}

type suiteRun struct {
	exps   []experiments.Experiment
	cfg    experiments.RunConfig
	spans  []time.Duration
	tables []*experiments.Table
	out    bytes.Buffer
	reg    *obs.Registry
}

// setupSuite selects the experiments. The reference role renders them with
// one worker, the sequential order the tables' byte identity is anchored
// to. Every role counts the runner's jobs, its unit of work: one counter
// add per batch of harness runs.
func setupSuite(spec childSpec, reg *obs.Registry) (instance, error) {
	p := suiteFor(spec.Smoke)
	s := &suiteRun{cfg: experiments.RunConfig{Seed: spec.Seed, Quick: p.Quick, Parallelism: p.Parallelism}}
	if spec.Role == roleRef {
		s.cfg.Parallelism = 1
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.reg = reg
	runner.SetObs(reg)
	for _, id := range p.Experiments {
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %s", id)
		}
		s.exps = append(s.exps, e)
	}
	return s, nil
}

func (s *suiteRun) run() {
	for _, e := range s.exps {
		start := time.Now()
		t := e.Run(s.cfg)
		s.spans = append(s.spans, time.Since(start))
		t.Render(&s.out)
		s.tables = append(s.tables, t)
	}
}

func (s *suiteRun) check(r *childResult) error {
	sum := sha256.Sum256(s.out.Bytes())
	r.Digest = hex.EncodeToString(sum[:])
	for i, e := range s.exps {
		r.set("suite."+e.ID+"_s", s.spans[i].Seconds())
	}
	r.set("events", float64(s.reg.Counter("runner.jobs").Value()))
	// Accuracy as the tables report it: the mean of every recall and
	// precision cell, and E13's per-row detection latency.
	r.set("recall", s.column("", "recall", mean))
	r.set("precision", s.column("", "precision", mean))
	r.set("detect_lag_p50_ms", s.column("E13", "latency ms", func(v []float64) float64 { return quantile(v, 0.5) }))
	r.set("detect_lag_p99_ms", s.column("E13", "latency ms", func(v []float64) float64 { return quantile(v, 0.99) }))
	for _, m := range []string{"recall", "precision"} {
		if r.Metrics[m] == 0 {
			return fmt.Errorf("suite tables hold no %s cells", m)
		}
	}
	return nil
}

// column folds the numeric cells of every column named name, in the table
// with the given ID or in every table when id is empty.
func (s *suiteRun) column(id, name string, fold func([]float64) float64) float64 {
	var vals []float64
	for _, t := range s.tables {
		if id != "" && t.ID != id {
			continue
		}
		for c, h := range t.Header {
			if h != name {
				continue
			}
			for _, row := range t.Rows {
				if c >= len(row) {
					continue
				}
				if v, err := strconv.ParseFloat(row[c], 64); err == nil {
					vals = append(vals, v)
				}
			}
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return fold(vals)
}

// checkNet enforces transport conservation: every link-level send is
// either delivered or dropped.
func checkNet(n network.Stats) error {
	if n.Sent != n.Delivered+n.Dropped {
		return fmt.Errorf("net.sent %d != delivered %d + dropped %d", n.Sent, n.Delivered, n.Dropped)
	}
	return nil
}

// netLines renders transport totals as sorted name=value lines.
func netLines(n network.Stats) []string {
	lines := []string{
		"net.sent=" + strconv.FormatInt(n.Sent, 10),
		"net.delivered=" + strconv.FormatInt(n.Delivered, 10),
		"net.dropped=" + strconv.FormatInt(n.Dropped, 10),
		"net.bytes=" + strconv.FormatInt(n.Bytes, 10),
	}
	for kind, v := range n.ByKind {
		lines = append(lines, "net.kind."+kind+"="+strconv.FormatInt(v, 10))
	}
	sort.Strings(lines)
	return lines
}

// digestOf hashes a run's detection output: occurrences, confusion matrix
// and counter lines.
func digestOf(occ []core.Occurrence, conf stats.Confusion, lines []string) string {
	h := sha256.New()
	for _, o := range occ {
		fmt.Fprintf(h, "%d %d %t\n", o.Start, o.End, o.Borderline)
	}
	fmt.Fprintln(h, conf.String())
	fmt.Fprintln(h, strings.Join(lines, "\n"))
	return hex.EncodeToString(h.Sum(nil))
}

// scored records accuracy and detection lag: per true interval, the
// virtual time from its onset to the start of the first detection that
// matches it under the harness's scoring tolerance.
func (r *childResult) scored(truth []world.Interval, occ []core.Occurrence, conf stats.Confusion, tol sim.Duration) {
	r.set("recall", conf.Recall())
	r.set("precision", conf.Precision())
	var lags []float64
	for _, tv := range truth {
		for _, o := range occ {
			w := world.Interval{Start: o.Start - tol, End: o.End + tol}
			if w.Overlap(tv) > 0 || tv.Contains(w.Start) || w.Contains(tv.Start) {
				lags = append(lags, max(0, float64(o.Start-tv.Start))/1000)
				break
			}
		}
	}
	r.set("detect_lag_p50_ms", quantile(lags, 0.5))
	r.set("detect_lag_p99_ms", quantile(lags, 0.99))
}

func (r *childResult) netStats(n network.Stats) {
	r.set("net.sent", float64(n.Sent))
	r.set("net.bytes", float64(n.Bytes))
	r.set("net.bytes_per_msg", ratio(float64(n.Bytes), float64(n.Sent)))
}

func (r *childResult) applied(applied, stale int64) {
	r.set("core.applied", float64(applied))
	r.set("core.stale", float64(stale))
	r.set("core.useful_ratio", ratio(float64(applied), float64(applied+stale)))
}

func (r *childResult) generated(gen time.Duration, n int) {
	r.set("workload.events", float64(n))
	r.set("workload.gen_s", gen.Seconds())
}
