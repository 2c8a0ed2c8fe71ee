package checker

import (
	"encoding/binary"
	"fmt"
	"math"

	"pervasive/internal/clock"
	"pervasive/internal/sim"
)

// Batch is one aggregator→root sync flush: the coalesced strobe-stamp
// watermarks of every process that reported since the previous flush,
// plus value metadata for the boundary-relevant subset (processes read
// by clauses that span regions — region-local clause inputs stay local,
// only their verdicts matter upstream and those ride the clause state).
type Batch struct {
	Region int
	// Epoch is the aggregator's regional epoch; the root discards batches
	// from before the aggregator's latest recovery.
	Epoch int
	At    sim.Time
	// Triples are the per-process (proc, val, sent) stamp watermarks, in
	// proc order.
	Triples []clock.StampTriple
	// Entries carry the boundary-relevant values, in proc order.
	Entries []BatchEntry
}

// BatchEntry is one boundary-relevant value in a sync batch.
type BatchEntry struct {
	Proc  int
	Epoch int // sender's crash/recovery epoch
	Var   string
	Value float64
}

// AppendWire appends the batch's wire encoding to dst: the header
// (region, regional epoch, at), the delta-coded stamp-triple block
// (clock.AppendStampBatch), then the entry block with proc ids
// delta-coded the same way.
func (b *Batch) AppendWire(dst []byte) []byte {
	var buf [binary.MaxVarintLen64]byte
	putUv := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		dst = append(dst, buf[:n]...)
	}
	putUv(uint64(b.Region))
	putUv(uint64(b.Epoch))
	putUv(uint64(b.At))
	dst = clock.AppendStampBatch(dst, b.Triples)
	putUv(uint64(len(b.Entries)))
	prev := -1
	for _, e := range b.Entries {
		if e.Proc <= prev {
			panic(fmt.Sprintf("checker: batch entries must be sorted by proc (%d after %d)", e.Proc, prev))
		}
		putUv(uint64(e.Proc - prev))
		prev = e.Proc
		putUv(uint64(e.Epoch))
		putUv(uint64(len(e.Var)))
		dst = append(dst, e.Var...)
		var fb [8]byte
		binary.LittleEndian.PutUint64(fb[:], math.Float64bits(e.Value))
		dst = append(dst, fb[:]...)
	}
	return dst
}

// DecodeBatch decodes one batch from the front of b, returning it and
// the bytes consumed.
func DecodeBatch(b []byte) (Batch, int, error) {
	var out Batch
	off := 0
	uv := func(what string) (uint64, error) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, fmt.Errorf("checker: batch: bad %s varint", what)
		}
		off += n
		return v, nil
	}
	region, err := uv("region")
	if err != nil {
		return out, 0, err
	}
	epoch, err := uv("epoch")
	if err != nil {
		return out, 0, err
	}
	at, err := uv("at")
	if err != nil {
		return out, 0, err
	}
	out.Region, out.Epoch, out.At = int(region), int(epoch), sim.Time(at)
	triples, n, err := clock.DecodeStampBatch(b[off:])
	if err != nil {
		return out, 0, err
	}
	off += n
	out.Triples = triples
	count, err := uv("entry count")
	if err != nil {
		return out, 0, err
	}
	prev := -1
	for i := uint64(0); i < count; i++ {
		gap, err := uv("entry proc")
		if err != nil {
			return out, 0, err
		}
		if int(gap) <= 0 || prev+int(gap) <= prev {
			return out, 0, fmt.Errorf("checker: batch: bad proc delta at entry %d", i)
		}
		prev += int(gap)
		pe, err := uv("entry epoch")
		if err != nil {
			return out, 0, err
		}
		vlen, err := uv("entry var len")
		if err != nil {
			return out, 0, err
		}
		if vlen > uint64(len(b)-off) || off+int(vlen)+8 > len(b) {
			return out, 0, fmt.Errorf("checker: batch: truncated entry %d", i)
		}
		name := string(b[off : off+int(vlen)])
		off += int(vlen)
		val := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
		out.Entries = append(out.Entries, BatchEntry{
			Proc: prev, Epoch: int(pe), Var: name, Value: val,
		})
	}
	return out, off, nil
}
