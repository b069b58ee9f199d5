package corpus

// CandidateChecksums returns, per served document in manifest order, the
// checksum of its candidate cache (prb.CandidateCache.Checksum).
func (c *Corpus) CandidateChecksums() []uint32 {
	st := c.snapshot()
	out := make([]uint32, len(st.docs))
	for i, d := range st.docs {
		out[i] = st.stores[d.ID].cands.Checksum()
	}
	return out
}
