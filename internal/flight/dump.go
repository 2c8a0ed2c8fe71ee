package flight

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"pervasive/internal/obs"
	"pervasive/internal/sim"
)

// DumpVersion is the current dump format version, carried in every
// header so readers can reject formats they do not understand.
const DumpVersion = 1

// Event is one decoded flight record in a dump: Rec with the kind and
// attribute resolved to strings. Peer is -1 when the event has no
// counterpart process (the field is always emitted — 0 is a valid
// process index, so omitempty would be ambiguous).
type Event struct {
	Kind      string   `json:"kind"`
	Proc      int      `json:"proc"`
	At        sim.Time `json:"at"`
	Peer      int      `json:"peer"`
	Epoch     int      `json:"epoch,omitempty"`
	Seq       uint64   `json:"seq,omitempty"`
	Attr      string   `json:"attr,omitempty"`
	Value     float64  `json:"value,omitempty"`
	Clock     uint64   `json:"clock,omitempty"`
	PeerClock uint64   `json:"peer_clock,omitempty"`
}

// Dump is one trigger-scoped flush of the recorder: the last-K events
// of every involved process, merged into one (At, Proc, record order)
// sequence, plus the trigger that fired and — when the harness attaches
// one — the obs snapshot of the run at dump time. A dump is the recent
// causal context of a detection or fault, not a whole-run trace.
type Dump struct {
	Version  int      `json:"version"`
	Trigger  string   `json:"trigger"`
	At       sim.Time `json:"at"`
	TimeBase string   `json:"time_base"`
	N        int      `json:"n"`     // total processes in the run
	Procs    []int    `json:"procs"` // processes whose rings were flushed
	Events   []Event  `json:"events,omitempty"`
	// Metrics optionally embeds the obs snapshot taken when the dump was
	// triggered, making each dump self-describing about the run state.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Snapshot builds a Dump of the involved processes' rings (all rings
// when procs is empty) without invoking the trigger sink. Events are
// ordered by (At, Proc, intra-ring order), which is deterministic for
// any one execution: the DES is single-threaded, and in live mode each
// ring is already in that process's program order.
func (r *Recorder) Snapshot(trigger string, at sim.Time, procs ...int) *Dump {
	if r == nil {
		return nil
	}
	involved := procs
	if len(involved) == 0 {
		involved = make([]int, len(r.rings))
		for i := range involved {
			involved[i] = i
		}
	} else {
		involved = append([]int(nil), involved...)
		sort.Ints(involved)
		// Deduplicate and drop out-of-range processes.
		kept := involved[:0]
		for i, p := range involved {
			if p < 0 || p >= len(r.rings) {
				continue
			}
			if i > 0 && len(kept) > 0 && kept[len(kept)-1] == p {
				continue
			}
			kept = append(kept, p)
		}
		involved = kept
	}

	var recs []Rec
	for _, p := range involved {
		recs = r.rings[p].snap(recs)
	}
	// Rings were concatenated in ascending proc order with each ring
	// oldest-first, so a stable sort by At alone yields the documented
	// (At, Proc, intra-ring order) total order.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].At < recs[j].At })

	d := &Dump{
		Version:  DumpVersion,
		Trigger:  trigger,
		At:       at,
		TimeBase: "virtual",
		N:        len(r.rings),
		Procs:    involved,
		Events:   make([]Event, 0, len(recs)),
	}
	for _, rec := range recs {
		d.Events = append(d.Events, Event{
			Kind:      rec.Kind.String(),
			Proc:      int(rec.Proc),
			At:        rec.At,
			Peer:      int(rec.Peer),
			Epoch:     int(rec.Epoch),
			Seq:       rec.Seq,
			Attr:      r.AttrName(rec.Attr),
			Value:     rec.Value,
			Clock:     rec.Clock,
			PeerClock: rec.PeerClock,
		})
	}
	return d
}

// ---- JSONL codec ----
//
// A dump serializes as a JSONL stream, mirroring trace.EncodeJSONL: a
// header line {"flight":{version, trigger, at, time_base, n, procs}},
// one Event object per line, and — when present — a trailing
// {"metrics":{...}} line. The "flight" header key is what lets
// cmd/tracedump sniff dump files apart from trace files.

type dumpHeader struct {
	Version  int      `json:"version"`
	Trigger  string   `json:"trigger"`
	At       sim.Time `json:"at"`
	TimeBase string   `json:"time_base"`
	N        int      `json:"n"`
	Procs    []int    `json:"procs"`
}

type dumpHeaderLine struct {
	Flight dumpHeader `json:"flight"`
}

type dumpTrailer struct {
	Metrics *obs.Snapshot `json:"metrics"`
}

// EncodeJSONL writes the dump as a JSONL stream.
func (d *Dump) EncodeJSONL(w io.Writer) error {
	if d == nil {
		return errors.New("flight: encode nil dump")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode terminates each value with '\n'
	hdr := dumpHeaderLine{Flight: dumpHeader{
		Version: d.Version, Trigger: d.Trigger, At: d.At,
		TimeBase: d.TimeBase, N: d.N, Procs: d.Procs,
	}}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("flight: encode header: %w", err)
	}
	for i := range d.Events {
		if err := enc.Encode(&d.Events[i]); err != nil {
			return fmt.Errorf("flight: encode event %d: %w", i, err)
		}
	}
	if d.Metrics != nil {
		if err := enc.Encode(dumpTrailer{Metrics: d.Metrics}); err != nil {
			return fmt.Errorf("flight: encode metrics: %w", err)
		}
	}
	return bw.Flush()
}

// IsDumpHeader reports whether a JSONL first line belongs to a flight
// dump (as opposed to a trace, whose header is {"n":N}).
func IsDumpHeader(line []byte) bool {
	var probe struct {
		Flight *json.RawMessage `json:"flight"`
	}
	return json.Unmarshal(line, &probe) == nil && probe.Flight != nil
}

// DecodeJSONL reads a dump written by EncodeJSONL and validates it:
// version must be known, every event kind must parse and every process
// index must be in range.
func DecodeJSONL(r io.Reader) (*Dump, error) {
	dec := json.NewDecoder(r)
	var hdr dumpHeaderLine
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("flight: decode header: %w", err)
	}
	h := hdr.Flight
	if h.Version != DumpVersion {
		return nil, fmt.Errorf("flight: unsupported dump version %d (want %d)", h.Version, DumpVersion)
	}
	if h.N <= 0 {
		return nil, fmt.Errorf("flight: invalid process count %d", h.N)
	}
	d := &Dump{
		Version: h.Version, Trigger: h.Trigger, At: h.At,
		TimeBase: h.TimeBase, N: h.N, Procs: h.Procs,
	}
	for i := 0; ; i++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if errors.Is(err, io.EOF) {
				return d, nil
			}
			return nil, fmt.Errorf("flight: decode line %d: %w", i+2, err)
		}
		var probe struct {
			Kind    *string          `json:"kind"`
			Metrics *json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("flight: decode line %d: %w", i+2, err)
		}
		if probe.Kind == nil {
			if probe.Metrics == nil {
				return nil, fmt.Errorf("flight: line %d is neither event nor metrics", i+2)
			}
			d.Metrics = new(obs.Snapshot)
			if err := json.Unmarshal(*probe.Metrics, d.Metrics); err != nil {
				return nil, fmt.Errorf("flight: decode metrics: %w", err)
			}
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("flight: decode event line %d: %w", i+2, err)
		}
		if ParseKind(ev.Kind) == KindNone {
			return nil, fmt.Errorf("flight: event line %d has unknown kind %q", i+2, ev.Kind)
		}
		if ev.Proc < 0 || ev.Proc >= d.N {
			return nil, fmt.Errorf("flight: event line %d has process %d out of range", i+2, ev.Proc)
		}
		d.Events = append(d.Events, ev)
	}
}
