package checker

import (
	"bytes"
	"reflect"
	"testing"

	"pervasive/internal/clock"
)

func TestBatchWireRoundTrip(t *testing.T) {
	b := Batch{
		Region: 3, Epoch: 2, At: 12345,
		Triples: []clock.StampTriple{
			{Proc: 10, Val: 7, Sent: 7},
			{Proc: 11, Val: 300, Sent: 12},
			{Proc: 19, Val: 1, Sent: 1},
		},
		Entries: []BatchEntry{
			{Proc: 10, Epoch: 0, Var: "p", Value: 1},
			{Proc: 19, Epoch: 4, Var: "occupancy", Value: -2.5},
		},
	}
	wire := b.AppendWire(nil)
	got, n, err := DecodeBatch(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d bytes", n, len(wire))
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip:\nwant %+v\ngot  %+v", b, got)
	}
	// Concatenated batches decode independently.
	wire2 := b.AppendWire(wire)
	_, n1, _ := DecodeBatch(wire2)
	got2, n2, err := DecodeBatch(wire2[n1:])
	if err != nil || n1+n2 != len(wire2) || !reflect.DeepEqual(got2, b) {
		t.Fatalf("concatenated decode failed: n=%d+%d of %d err=%v", n1, n2, len(wire2), err)
	}
}

func TestBatchWireEmpty(t *testing.T) {
	b := Batch{Region: 0, Epoch: 0, At: 0}
	wire := b.AppendWire(nil)
	got, n, err := DecodeBatch(wire)
	if err != nil || n != len(wire) {
		t.Fatalf("empty batch decode: n=%d/%d err=%v", n, len(wire), err)
	}
	if len(got.Triples) != 0 || len(got.Entries) != 0 {
		t.Fatalf("empty batch grew content: %+v", got)
	}
}

func TestBatchWireTruncationErrors(t *testing.T) {
	b := Batch{
		Region: 1, Epoch: 0, At: 99,
		Triples: []clock.StampTriple{{Proc: 0, Val: 1, Sent: 1}},
		Entries: []BatchEntry{{Proc: 0, Var: "p", Value: 1}},
	}
	wire := b.AppendWire(nil)
	for cut := 0; cut < len(wire); cut++ {
		if _, _, err := DecodeBatch(wire[:cut]); err == nil {
			t.Errorf("truncation at %d of %d decoded without error", cut, len(wire))
		}
	}
}

func TestBatchWireRejectsUnsortedEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted entries")
		}
	}()
	b := Batch{Entries: []BatchEntry{{Proc: 5, Var: "p"}, {Proc: 5, Var: "q"}}}
	b.AppendWire(nil)
}

// Crafted sync batches that once crashed DecodeBatch: region, epoch and
// at of 0, then either a stamp block declaring 2^40 triples (a fatal
// out-of-memory error sizing the triple slice) or one entry whose
// variable-name length 2^64-8 made the bounds check overflow (a slice
// panic).
var (
	oversizedBatchTriples = []byte{0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	overflowingBatchVar   = []byte{0, 0, 0, 0, 1, 1, 0,
		0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0, 0, 0, 0, 0, 0}
)

func TestBatchWireRejectsHostileLengths(t *testing.T) {
	for name, data := range map[string][]byte{
		"triple count": oversizedBatchTriples,
		"var length":   overflowingBatchVar,
	} {
		if _, _, err := DecodeBatch(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzDecodeBatch: arbitrary bytes decode to an error or to a batch
// whose wire form decodes and re-encodes to the same bytes.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(oversizedBatchTriples)
	f.Add(overflowingBatchVar)
	valid := Batch{
		Region: 3, Epoch: 2, At: 12345,
		Triples: []clock.StampTriple{{Proc: 10, Val: 7, Sent: 7}, {Proc: 19, Val: 1, Sent: 1}},
		Entries: []BatchEntry{{Proc: 10, Var: "p", Value: 1}, {Proc: 19, Epoch: 4, Var: "occupancy", Value: -2.5}},
	}
	f.Add(valid.AppendWire(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, _, err := DecodeBatch(data)
		if err != nil {
			return
		}
		enc := b.AppendWire(nil)
		again, n, err := DecodeBatch(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("re-decoding an encoded batch: n=%d of %d, err=%v", n, len(enc), err)
		}
		if !bytes.Equal(again.AppendWire(nil), enc) {
			t.Fatal("encode→decode→encode changed the bytes")
		}
	})
}
