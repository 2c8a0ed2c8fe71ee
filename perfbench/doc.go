// Command perfbench is the repository benchmark. It runs one workload as a
// closed batch loop — one simulation at a time, each started when the
// previous one ends, at most two worker goroutines — checks every run's
// output, and prints an environment stamp followed, as the last line, by
// one JSON object with the run counts and the metrics listed in
// BENCHMARK.json at the repository root.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash perfbench/run.sh --workload scale --seed 1 --seconds 30 --trace 0
//	go run . -workload hall -seconds 5 -smoke   # from this directory
//
// Workloads:
//
//   - scale: 65,536 sensors on 8 shards with 2 workers, a checker tree of
//     fan-out 16, Δ = 5 ms, 2 s of virtual time.
//   - hall: the §5 exhibition hall, 4 doors, capacity 200, initial
//     occupancy 195, vector strobes, Δ = 100 ms, 24 h of virtual time.
//   - suite: experiments E1–E14 and E16 at full size with Parallelism 2.
//
// Inputs come from -seed alone: the benchmark generates each workload's
// event stream and hands it to the harness.
//
// Every run is a fresh child process (see childEnv), so its heap, GC state
// and peak resident memory are its own. An invocation makes:
//
//  1. a reference run in an independent configuration whose digest every
//     later run must reproduce: scale on one shard and one worker, hall fed
//     the workload after a round trip through the trace codec, suite with
//     one worker;
//  2. untraced timed runs until -seconds have passed; -trace 0 reports each
//     end-to-end metric's median over them;
//  3. with -trace 1, on scale a one-worker baseline, then one traced run
//     (obs registry, CPU profile, runtime/metrics at each phase boundary)
//     whose counters, folded profile and tracing overhead are the
//     per-layer metrics.
//
// A run fails on a crash, an error, a failed output check or a digest that
// differs from the reference; failed runs are counted in the result line's
// "failed" field against "attempted".
//
// The suite has no set-up outside its harness runs and exposes no event
// counts or detections, so on it setup_s is the one-worker reference run's
// time, events_per_s counts runner jobs (harness runs), and recall and
// precision are the means of every recall and precision cell of its
// tables. Per-layer metrics a workload does not exercise read 0.
package main
