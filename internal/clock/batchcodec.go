package clock

import (
	"encoding/binary"
	"fmt"
)

// Batched strobe-stamp wire encoding. A regional checker aggregator
// forwards the coalesced per-process strobe metadata of one epoch window
// upward as a batch of (proc, val, sent) triples: the process id, its
// latest own-clock component, and the per-process send counter of the
// last coalesced report. Triples are sorted by proc, so proc ids are
// delta-coded (the gap to the previous id, always >= 1) and every field
// is a uvarint — a fleet-contiguous region encodes in ~3 bytes per
// process instead of the 18 a flat (proc, val, sent) record would take.
// The codec is exact and self-delimiting: DecodeStampBatch returns the
// triples plus the bytes consumed, so batches can be concatenated.

// StampTriple is one per-process entry of a batched strobe-stamp sync.
type StampTriple struct {
	Proc int
	// Val is the process's own strobe-clock component at its latest
	// coalesced report.
	Val uint64
	// Sent is the per-process report counter (Seq) of that report.
	Sent uint64
}

// AppendStampBatch appends the delta-coded wire form of ts to dst and
// returns the extended buffer. Triples must be sorted by strictly
// increasing Proc; the encoder panics otherwise — batches are built from
// sorted per-region state, so an out-of-order triple is a programming
// error, not input noise.
func AppendStampBatch(dst []byte, ts []StampTriple) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(ts)))
	dst = append(dst, buf[:n]...)
	prev := -1
	for _, t := range ts {
		if t.Proc <= prev {
			panic(fmt.Sprintf("clock: stamp batch triples must be sorted by proc (%d after %d)", t.Proc, prev))
		}
		n = binary.PutUvarint(buf[:], uint64(t.Proc-prev))
		dst = append(dst, buf[:n]...)
		n = binary.PutUvarint(buf[:], t.Val)
		dst = append(dst, buf[:n]...)
		n = binary.PutUvarint(buf[:], t.Sent)
		dst = append(dst, buf[:n]...)
		prev = t.Proc
	}
	return dst
}

// DecodeStampBatch decodes one batch from the front of b, returning the
// triples and the number of bytes consumed.
func DecodeStampBatch(b []byte) ([]StampTriple, int, error) {
	off := 0
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("clock: stamp batch: bad count varint")
	}
	off += n
	// The count sizes the allocation, so it is capped by the bytes left:
	// a triple is three uvarints of at least one byte each.
	if count > uint64(len(b)-off)/3 {
		return nil, 0, fmt.Errorf("clock: stamp batch: %d triples declared, only %d bytes left", count, len(b)-off)
	}
	out := make([]StampTriple, 0, count)
	prev := -1
	for i := uint64(0); i < count; i++ {
		gap, n := binary.Uvarint(b[off:])
		proc := prev + int(gap)
		if n <= 0 || int(gap) <= 0 || proc <= prev {
			return nil, 0, fmt.Errorf("clock: stamp batch: bad proc delta at triple %d", i)
		}
		off += n
		val, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("clock: stamp batch: bad val at triple %d", i)
		}
		off += n
		sent, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("clock: stamp batch: bad sent at triple %d", i)
		}
		off += n
		prev = proc
		out = append(out, StampTriple{Proc: proc, Val: val, Sent: sent})
	}
	return out, off, nil
}
