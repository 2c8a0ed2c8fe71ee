package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"pervasive/internal/world"
)

// Digest returns a hex SHA-256 over the full event stream — time,
// object, attribute and value of every event, in order. Two runs whose
// world planes evolved identically have equal digests; this is the
// byte-identity oracle of the record/replay tests and cmd/tracedump.
func Digest(evs []Event) string {
	h := sha256.New()
	var buf [8]byte
	for _, ev := range evs {
		binary.LittleEndian.PutUint64(buf[:], uint64(ev.At))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(ev.Obj))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(len(ev.Attr)))
		h.Write(buf[:])
		h.Write([]byte(ev.Attr))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(ev.Val))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LogDigest is Digest over a ground-truth world log.
func LogDigest(log []world.Event) string { return Digest(FromLog(log)) }
