// Package prof captures per-phase CPU and allocation profiles for the
// bench tools. A Profiler brackets named phases: Start begins a CPU
// profile and snapshots the allocator, Stop writes cpu-<phase>.pprof
// into the profiler's directory and returns the phase's allocation
// delta. Like internal/obs, the nil *Profiler is the disabled mode:
// every method is a no-op, so call sites need no flag checks.
package prof

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// Delta is one completed phase's cost.
type Delta struct {
	Phase string `json:"phase"`
	// AllocBytes and Mallocs are the allocator deltas across the phase
	// (cumulative totals, so they count garbage too, not live heap).
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	// CPUProfile is the written pprof file path.
	CPUProfile string `json:"cpu_profile"`
}

// Profiler writes per-phase profiles into one directory. At most one
// phase may be active at a time (runtime/pprof allows only one CPU
// profile process-wide).
type Profiler struct {
	dir    string
	phase  string
	f      *os.File
	m0     runtime.MemStats
	deltas []Delta
}

// New creates the directory and a profiler writing into it.
func New(dir string) (*Profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Profiler{dir: dir}, nil
}

// Start begins the named phase: CPU profiling plus an allocator
// snapshot. Starting a phase while one is active is an error.
func (p *Profiler) Start(phase string) error {
	if p == nil {
		return nil
	}
	if p.f != nil {
		return fmt.Errorf("prof: phase %q still active", p.phase)
	}
	f, err := os.Create(filepath.Join(p.dir, "cpu-"+phase+".pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.phase, p.f = phase, f
	runtime.ReadMemStats(&p.m0)
	return nil
}

// Stop ends the active phase, writes its CPU profile, and returns the
// phase's allocation delta.
func (p *Profiler) Stop() (Delta, error) {
	if p == nil {
		return Delta{}, nil
	}
	if p.f == nil {
		return Delta{}, fmt.Errorf("prof: no active phase")
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	pprof.StopCPUProfile()
	err := p.f.Close()
	d := Delta{
		Phase:      p.phase,
		AllocBytes: m1.TotalAlloc - p.m0.TotalAlloc,
		Mallocs:    m1.Mallocs - p.m0.Mallocs,
		CPUProfile: p.f.Name(),
	}
	p.phase, p.f = "", nil
	p.deltas = append(p.deltas, d)
	return d, err
}

// Phase runs fn bracketed as one phase and returns its delta.
func (p *Profiler) Phase(phase string, fn func()) (Delta, error) {
	if p == nil {
		fn()
		return Delta{}, nil
	}
	if err := p.Start(phase); err != nil {
		return Delta{}, err
	}
	fn()
	return p.Stop()
}

// Deltas returns every completed phase in order.
func (p *Profiler) Deltas() []Delta {
	if p == nil {
		return nil
	}
	return append([]Delta(nil), p.deltas...)
}
