package workload

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"pervasive/internal/sim"
)

func sampleEvents() []Event {
	evs := []Event{
		{At: 0, Obj: 0, Attr: "p", Val: 1},
		{At: 5, Obj: 3, Attr: "p", Val: 1},
		{At: 5, Obj: 3, Attr: "q", Val: -2},
		{At: 5, Obj: 7, Attr: "p", Val: 0},
		{At: 1000, Obj: 0, Attr: "p", Val: 0},
		{At: 1000, Obj: 1, Attr: "x", Val: 3.25},       // non-integral: raw path
		{At: 2500, Obj: 1, Attr: "x", Val: 7},          // integral after raw: chain reset
		{At: 2500, Obj: 1, Attr: "y", Val: 1e300},      // out of ±2^52: raw path
		{At: 9000, Obj: 2, Attr: "p", Val: 1 << 53},    // beyond delta window
		{At: 9001, Obj: 2, Attr: "p", Val: math.Pi},    // raw
		{At: 9002, Obj: 2, Attr: "p", Val: -(1 << 40)}, // large negative delta
	}
	Sort(evs)
	return evs
}

func TestTraceRoundTrip(t *testing.T) {
	tr := &Trace{
		Horizon: 10 * sim.Second,
		Meta:    map[string]string{"scenario": "hall", "seed": "42"},
		Events:  sampleEvents(),
	}
	enc := tr.Encode()
	if !IsTraceHeader(enc) {
		t.Fatalf("encoded trace does not start with %q", TraceMagic)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Horizon != tr.Horizon {
		t.Fatalf("horizon: got %d want %d", dec.Horizon, tr.Horizon)
	}
	if len(dec.Meta) != 2 || dec.Meta["scenario"] != "hall" || dec.Meta["seed"] != "42" {
		t.Fatalf("meta mismatch: %v", dec.Meta)
	}
	if len(dec.Events) != len(tr.Events) {
		t.Fatalf("event count: got %d want %d", len(dec.Events), len(tr.Events))
	}
	for i := range dec.Events {
		if dec.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, dec.Events[i], tr.Events[i])
		}
	}
	if Digest(dec.Events) != Digest(tr.Events) {
		t.Fatal("digest changed across round-trip")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := &Trace{
		Horizon: 10 * sim.Second,
		Meta:    map[string]string{"scenario": "hall"},
		Events:  sampleEvents(),
	}
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	dec, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if Digest(dec.Events) != Digest(tr.Events) {
		t.Fatal("digest changed across file round-trip")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("ReadFile of a missing path succeeded")
	}
}

func TestTraceEncodeDeterministic(t *testing.T) {
	tr := &Trace{Horizon: sim.Second, Meta: map[string]string{"b": "2", "a": "1"}, Events: sampleEvents()}
	a, b := tr.Encode(), tr.Encode()
	if string(a) != string(b) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestTraceRejectsBadInput(t *testing.T) {
	if _, err := Decode([]byte("not a trace")); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: got %v", err)
	}
	tr := &Trace{Horizon: sim.Second, Events: sampleEvents()}
	enc := tr.Encode()
	// Future version must be rejected, not misparsed.
	bad := append([]byte{}, enc...)
	bad[4] = 99 // version byte follows the 4-byte magic
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: got %v", err)
	}
	// Truncations at every prefix must error, never panic.
	for n := 0; n < len(enc); n++ {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Trailing garbage is an error too.
	if _, err := Decode(append(append([]byte{}, enc...), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestTraceCompactForIntegerStreams(t *testing.T) {
	// A toggler fleet is the integral fast path: the encoded size should
	// be a few bytes per event, far below the 32-byte struct.
	evs := TogglerFleet{Seed: 7, N: 64, Attr: "p",
		MeanHigh: 50 * sim.Millisecond, MeanLow: 80 * sim.Millisecond,
	}.Events(2 * sim.Second)
	if len(evs) < 1000 {
		t.Fatalf("workload too small for a size check: %d events", len(evs))
	}
	enc := (&Trace{Horizon: 2 * sim.Second, Events: evs}).Encode()
	if perEv := float64(len(enc)) / float64(len(evs)); perEv > 8 {
		t.Fatalf("encoding too large: %.1f bytes/event over %d events", perEv, len(evs))
	}
}

func TestEventSourceClipsToHorizon(t *testing.T) {
	evs := sampleEvents()
	src := EventSource(evs)
	got := src.Events(1000)
	for _, ev := range got {
		if ev.At > 1000 {
			t.Fatalf("event past horizon: %+v", ev)
		}
	}
	if len(got) != 6 {
		t.Fatalf("clip count: got %d want 6", len(got))
	}
	if n := len(src.Events(sim.Never)); n != len(evs) {
		t.Fatalf("unclipped count: got %d want %d", n, len(evs))
	}
}

// oversizedEventCount is a 14-byte trace (magic, version 1, horizon 1,
// no meta, no attributes) declaring 2^36 events. Sizing the event slice
// from that count once killed the process with a fatal out-of-memory
// error, which recover cannot catch.
var oversizedEventCount = []byte("PVWL\x01\x01\x00\x00\x80\x80\x80\x80\x80\x02")

func TestTraceRejectsOversizedCounts(t *testing.T) {
	for name, data := range map[string][]byte{
		"events":     oversizedEventCount,
		"attributes": []byte("PVWL\x01\x01\x00\x80\x80\x80\x80\x80\x02"),
		// One attribute "p", one event whose time delta is 2^63.
		"time overflow": []byte("PVWL\x01\x00\x00\x01\x01p\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x00\x00\x00"),
	} {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the trace decoder: it must return
// an error or a trace whose re-encoding decodes and re-encodes to the
// same bytes.
func FuzzDecode(f *testing.F) {
	f.Add(oversizedEventCount)
	f.Add((&Trace{Horizon: sim.Second, Meta: map[string]string{"scenario": "hall"}, Events: sampleEvents()}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			return
		}
		enc := tr.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded trace: %v", err)
		}
		if string(again.Encode()) != string(enc) {
			t.Fatal("encode→decode→encode changed the bytes")
		}
	})
}
