package network

// dedupEntries reports the total number of live flood-dedup entries
// across all processes (the bounded-memory guarantee's probe).
func (nt *Net) dedupEntries() int {
	n := 0
	for i := range nt.seen {
		n += len(nt.seen[i])
	}
	return n
}
