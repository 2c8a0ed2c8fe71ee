package prof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestNilProfilerIsNoop(t *testing.T) {
	var p *Profiler
	if err := p.Start("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	ran := false
	if _, err := p.Phase("x", func() { ran = true }); err != nil || !ran {
		t.Fatalf("nil Phase: err=%v ran=%v", err, ran)
	}
	if p.Deltas() != nil {
		t.Fatal("nil profiler reported deltas")
	}
}

func TestPhaseWritesProfileAndCountsAllocs(t *testing.T) {
	dir := t.TempDir()
	p, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sink [][]byte
	d, err := p.Phase("alloc", func() {
		for i := 0; i < 1000; i++ {
			sink = append(sink, make([]byte, 1024))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sink
	if d.Phase != "alloc" || d.Mallocs < 1000 || d.AllocBytes < 1000*1024 {
		t.Fatalf("delta %+v", d)
	}
	fi, err := os.Stat(filepath.Join(dir, "cpu-alloc.pprof"))
	if err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile not written: %v", err)
	}
	if got := p.Deltas(); len(got) != 1 || got[0].Phase != "alloc" {
		t.Fatalf("deltas %+v", got)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	p, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start("a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Start("b"); err == nil {
		t.Fatal("second Start while active not rejected")
	}
	if _, err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stop(); err == nil {
		t.Fatal("Stop without active phase not rejected")
	}
}
