package main

import (
	"context"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuBuckets are the modules a CPU profile's samples are folded into:
// the repository packages under internal/ by name, plus the Go runtime's
// garbage collector and allocator.
var cpuBuckets = []string{"sim", "network", "clock", "core", "predicate",
	"checker", "world", "workload", "stats", "scenario", "experiments",
	"lattice", "clocksync", "runner", "obs", "gc", "malloc"}

// gcFuncs and mallocFuncs classify runtime frames by name fragment.
var (
	gcFuncs = []string{"gcBgMarkWorker", "gcDrain", "scanobject", "scanblock",
		"scanstack", "greyobject", "markroot", "findObject", "(*gcWork)",
		"gcMark", "sweep", "wbBuf", "bulkBarrier", "typePointers", "(*gcBits)",
		"spanOf", "gcFlushBgCredit", "gcAssist"}
	mallocFuncs = []string{"mallocgc", "nextFreeFast", "(*mcache)", "(*mcentral)",
		"(*mheap)", "memclrNoHeapPointers", "growslice", "newobject",
		"makeslice", "makemap", "newarray", "heapSetType", "nextFreeIndex",
		"(*fixalloc)", "(*pageAlloc)"}
)

// foldProfile runs the local toolchain's pprof over a CPU profile and
// returns each bucket's CPU seconds and the share of profiled time that
// fell in no bucket.
func foldProfile(ctx context.Context, path string) (map[string]float64, float64, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-unit=ms", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(out)
}

// foldTraces parses `pprof -traces` output: blocks separated by dashed
// lines, each a sample value and its stack, leaf frame first. A sample is
// charged to the innermost frame that belongs to a bucket, so the standard
// library and runtime helpers a module calls (map lookups, copies, sorts)
// count as that module's own time; GC and allocator frames are charged to
// gc and malloc wherever they occur.
func foldTraces(out []byte) (map[string]float64, float64, error) {
	buckets := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		buckets[b] = 0
	}
	blocks := strings.Split(string(out), "-----------+")
	var total, attributed float64
	for _, blk := range blocks[1:] {
		lines := strings.Split(blk, "\n")[1:] // [0] is the separator's tail
		if len(lines) == 0 {
			continue
		}
		first := strings.Fields(lines[0])
		if len(first) < 2 {
			continue
		}
		d, err := time.ParseDuration(first[0])
		if err != nil {
			return nil, 0, fmt.Errorf("pprof sample value %q: %w", first[0], err)
		}
		s := d.Seconds()
		total += s
		frames := append([]string{strings.Join(first[1:], " ")}, lines[1:]...)
		if b := chargeTo(frames); b != "" {
			buckets[b] += s
			attributed += s
		}
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof output holds no samples")
	}
	return buckets, (total - attributed) / total, nil
}

// chargeTo returns the bucket of the innermost frame that has one.
func chargeTo(frames []string) string {
	for _, f := range frames {
		if b := bucketOf(strings.TrimSuffix(strings.TrimSpace(f), " (inline)")); b != "" {
			return b
		}
	}
	return ""
}

// bucketOf maps a fully qualified function name to its cpuBuckets entry,
// or "" when it belongs to none.
func bucketOf(fn string) string {
	pkg, _, _ := strings.Cut(fn, "[") // generic shapes may hold other paths
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if pkg == "runtime" {
		for _, f := range gcFuncs {
			if strings.Contains(fn, f) {
				return "gc"
			}
		}
		for _, f := range mallocFuncs {
			if strings.Contains(fn, f) {
				return "malloc"
			}
		}
		return ""
	}
	mod, ok := strings.CutPrefix(pkg, "pervasive/internal/")
	if !ok {
		return ""
	}
	for _, b := range cpuBuckets {
		if b == mod {
			return b
		}
	}
	return ""
}
