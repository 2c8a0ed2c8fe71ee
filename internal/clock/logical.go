package clock

// Lamport is a logical scalar clock following rules SC1–SC3 (Section
// 4.2.2). The zero value is a clock at time 0, ready to use.
type Lamport struct {
	c uint64
}

// Tick applies SC1 (a relevant internal/sense event) and returns the new
// value.
func (l *Lamport) Tick() uint64 {
	l.c++
	return l.c
}

// Send applies SC2: tick, then return the value to piggyback on the
// outgoing computation message.
func (l *Lamport) Send() uint64 { return l.Tick() }

// Receive applies SC3 for a piggybacked timestamp t: take the max, then
// tick. It returns the new value.
func (l *Lamport) Receive(t uint64) uint64 {
	if t > l.c {
		l.c = t
	}
	l.c++
	return l.c
}

// VectorClock is a causality-tracking Mattern/Fidge clock following rules
// VC1–VC3 (Section 4.2.1). Construct with NewVectorClock.
type VectorClock struct {
	me int
	v  Vector
}

// NewVectorClock returns process me's clock in an n-process system.
func NewVectorClock(me, n int) *VectorClock {
	if me < 0 || me >= n {
		panic("clock: process index out of range")
	}
	return &VectorClock{me: me, v: NewVector(n)}
}

// Tick applies VC1 (relevant internal event) and returns a copy of the new
// vector.
func (c *VectorClock) Tick() Vector {
	c.v[c.me]++
	return c.v.Clone()
}

// Send applies VC2: tick, then return the vector to piggyback on the
// outgoing computation message.
func (c *VectorClock) Send() Vector { return c.Tick() }

// Receive applies VC3 for piggybacked vector t: componentwise max, then a
// local tick. It returns a copy of the new vector.
func (c *VectorClock) Receive(t Vector) Vector {
	c.v.MergeFrom(t)
	c.v[c.me]++
	return c.v.Clone()
}
