package clock

// Read returns the current clock value without ticking.
func (l *Lamport) Read() uint64 { return l.c }

// Read returns the current clock value.
func (s *StrobeScalar) Read() uint64 { return s.c }

// ActivePeers returns how many non-own components this process has heard
// of — the quantity the O(active peers) memory claim is about.
func (s *SparseStrobeVector) ActivePeers() int { return len(s.comps) }
