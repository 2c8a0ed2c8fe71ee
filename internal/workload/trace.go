package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"

	"pervasive/internal/sim"
)

// Versioned, delta-coded binary trace format ("PVWL"), in the style of
// clock.AppendStampBatch: uvarint fields, gap deltas over the canonical
// order, self-delimiting records.
//
// Layout (version 1):
//
//	magic    "PVWL"
//	version  uvarint (1)
//	horizon  uvarint (microseconds)
//	meta     uvarint count, then count (key, value) string pairs, keys
//	         sorted; strings are uvarint length + bytes
//	attrs    uvarint count, then count sorted strings (the attr table)
//	events   uvarint count, then count records in canonical order:
//	           dt    uvarint   time gap from the previous record
//	           dobj  zigzag    object gap from the previous record
//	           key   uvarint   attrIdx<<1 | raw
//	           val   raw=0: zigzag int64 delta from the previous value
//	                        of this (obj, attr) stream (0 before the
//	                        first event) — the common case, since most
//	                        sensor attributes are small integers;
//	                 raw=1: 8 little-endian float64 bits
//
// Integer deltas apply only when both the old and new value are integral
// and within ±2^52 (exact in float64); anything else falls back to raw
// bits, so every float64 round-trips exactly.

// TraceMagic is the 4-byte header of a workload trace file.
const TraceMagic = "PVWL"

// TraceVersion is the current format version.
const TraceVersion = 1

// Trace is a decoded workload trace: a canonical event stream plus the
// run metadata needed to rebuild the scenario around it.
type Trace struct {
	Horizon sim.Time
	Meta    map[string]string
	Events  []Event
}

// IsTraceHeader reports whether data starts with the workload-trace
// magic (the sniff used by cmd/tracedump to dispatch file kinds).
func IsTraceHeader(data []byte) bool {
	return len(data) >= len(TraceMagic) && string(data[:len(TraceMagic)]) == TraceMagic
}

// streamKey packs (obj, attrIdx) for the per-stream value-delta state.
func streamKey(obj int, attrIdx uint64) uint64 {
	return uint64(obj)<<16 | attrIdx
}

// integral reports whether v is an exact integer within ±2^52.
func integral(v float64) (int64, bool) {
	const lim = 1 << 52
	if v != math.Trunc(v) || v > lim || v < -lim {
		return 0, false
	}
	return int64(v), true
}

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Encode serializes the trace. Events must be canonically ordered with
// non-negative times and objects; Encode panics otherwise (same contract
// style as clock.AppendStampBatch).
func (t *Trace) Encode() []byte {
	attrIdx := make(map[string]uint64)
	var attrs []string
	for _, ev := range t.Events {
		if _, ok := attrIdx[ev.Attr]; !ok {
			attrIdx[ev.Attr] = 0
			attrs = append(attrs, ev.Attr)
		}
	}
	sort.Strings(attrs)
	if len(attrs) >= 1<<16 {
		panic("workload: trace exceeds 65535 distinct attributes")
	}
	for i, a := range attrs {
		attrIdx[a] = uint64(i)
	}
	keys := make([]string, 0, len(t.Meta))
	for k := range t.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	buf := make([]byte, 0, 16+10*len(t.Events))
	buf = append(buf, TraceMagic...)
	buf = appendUvarint(buf, TraceVersion)
	buf = appendUvarint(buf, uint64(t.Horizon))
	buf = appendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = appendString(buf, t.Meta[k])
	}
	buf = appendUvarint(buf, uint64(len(attrs)))
	for _, a := range attrs {
		buf = appendString(buf, a)
	}
	buf = appendUvarint(buf, uint64(len(t.Events)))

	var prevAt sim.Time
	var prevObj int
	last := make(map[uint64]int64, 64) // per-(obj,attr) previous integral value
	for i, ev := range t.Events {
		if ev.At < prevAt || ev.Obj < 0 {
			panic(fmt.Sprintf("workload: trace event %d out of canonical order", i))
		}
		buf = appendUvarint(buf, uint64(ev.At-prevAt))
		buf = appendUvarint(buf, zigzag(int64(ev.Obj-prevObj)))
		ai := attrIdx[ev.Attr]
		sk := streamKey(ev.Obj, ai)
		prev := last[sk]
		if v, ok := integral(ev.Val); ok {
			buf = appendUvarint(buf, ai<<1)
			buf = appendUvarint(buf, zigzag(v-prev))
			last[sk] = v
		} else {
			buf = appendUvarint(buf, ai<<1|1)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.Val))
			// A raw value resets the stream's integer chain: the next
			// integral event deltas from zero again.
			delete(last, sk)
		}
		prevAt, prevObj = ev.At, ev.Obj
	}
	return buf
}

// decoder walks an encoded trace with bounds checking.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("workload: truncated trace at offset %d", d.off) //lint:allow hotpath(cold error path: a truncated trace aborts the replay; the happy path never formats)
	}
	d.off += n
	return v, nil
}

// count reads an element count and rejects one that the remaining
// bytes cannot hold at minBytes per element.
func (d *decoder) count(minBytes int, what string) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64((len(d.b)-d.off)/minBytes) {
		return 0, fmt.Errorf("workload: %d %ss declared at offset %d, only %d bytes left", n, what, d.off, len(d.b)-d.off)
	}
	return int(n), nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(d.b)-d.off) < n {
		return "", fmt.Errorf("workload: truncated string at offset %d", d.off)
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) raw8() (uint64, error) {
	if len(d.b)-d.off < 8 {
		return 0, fmt.Errorf("workload: truncated raw value at offset %d", d.off)
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

// Decode parses an encoded trace, validating the magic and version.
func Decode(data []byte) (*Trace, error) {
	if !IsTraceHeader(data) {
		return nil, fmt.Errorf("workload: not a trace (missing %q magic)", TraceMagic)
	}
	d := &decoder{b: data, off: len(TraceMagic)}
	ver, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ver != TraceVersion {
		return nil, fmt.Errorf("workload: trace version %d (supported: %d)", ver, TraceVersion)
	}
	hz, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	t := &Trace{Horizon: sim.Time(hz), Meta: map[string]string{}}
	nm, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nm; i++ {
		k, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.str()
		if err != nil {
			return nil, err
		}
		t.Meta[k] = v
	}
	// Both counts size allocations, so each is capped by the bytes left:
	// an attribute name takes at least its 1-byte length, and an event at
	// least 4 bytes (time, object and key varints plus a value byte).
	na, err := d.count(1, "attribute")
	if err != nil {
		return nil, err
	}
	attrs := make([]string, na)
	for i := range attrs {
		if attrs[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	ne, err := d.count(4, "event")
	if err != nil {
		return nil, err
	}
	t.Events = make([]Event, 0, ne)
	var at sim.Time
	var obj int
	last := make(map[uint64]int64, 64)
	for i := 0; i < ne; i++ {
		dt, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		dobjZ, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		key, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		ai := key >> 1
		if ai >= uint64(len(attrs)) {
			return nil, fmt.Errorf("workload: event %d references attr %d of %d", i, ai, len(attrs))
		}
		if dt > uint64(math.MaxInt64-at) {
			return nil, fmt.Errorf("workload: event %d overflows the time axis", i)
		}
		at += sim.Time(dt)
		obj += int(unzigzag(dobjZ))
		if obj < 0 {
			return nil, fmt.Errorf("workload: event %d decodes to negative object %d", i, obj)
		}
		var val float64
		sk := streamKey(obj, ai)
		if key&1 == 0 {
			dv, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			v := last[sk] + unzigzag(dv)
			last[sk] = v
			val = float64(v)
		} else {
			bits, err := d.raw8()
			if err != nil {
				return nil, err
			}
			val = math.Float64frombits(bits)
			delete(last, sk)
		}
		t.Events = append(t.Events, Event{At: at, Obj: obj, Attr: attrs[ai], Val: val})
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("workload: %d trailing bytes after trace", len(data)-d.off)
	}
	return t, nil
}

// WriteFile encodes the trace to path.
func (t *Trace) WriteFile(path string) error {
	return os.WriteFile(path, t.Encode(), 0o644)
}

// ReadFile reads and decodes a trace from path.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
