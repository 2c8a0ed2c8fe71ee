package obs

import "pervasive/internal/sim"

// CollectEngine registers a snapshot-time collector that mirrors the DES
// kernel's plain counters (events scheduled/executed, heap
// depth and its watermark) into r. The kernel's hot path stays free of
// atomics and registry lookups: values are read only when r.Snapshot()
// runs, which must happen on the engine's own goroutine (the DES is
// single-threaded by contract). A nil registry is a no-op.
func CollectEngine(r *Registry, e *sim.Engine) {
	if r == nil || e == nil {
		return
	}
	scheduled := r.Counter("sim.events.scheduled")
	executed := r.Counter("sim.events.executed")
	depth := r.Gauge("sim.heap.depth")
	r.RegisterCollector(func(*Registry) {
		scheduled.Store(int64(e.Scheduled))
		executed.Store(int64(e.Executed))
		depth.SetWithMax(int64(e.Pending()), int64(e.MaxHeapDepth))
	})
}
