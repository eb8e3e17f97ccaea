package scanner

// ResetScratchPool empties the scratch pool, so the next round builds its
// buffers from nothing — an unpooled run.
func ResetScratchPool() {
	for scratchPool.Get() != nil {
	}
}

// PoisonScratch leaves a scratch for batch in the pool with every buffer
// filled to capacity with garbage. A round that read a buffer before
// rewriting it would see the garbage.
func PoisonScratch(batch int) {
	sc := getScratch(batch)
	for _, bufs := range [][][]byte{sc.bufs, sc.recv} {
		for i := range bufs {
			bufs[i] = bufs[i][:cap(bufs[i])]
			for j := range bufs[i] {
				bufs[i][j] = 0xa5
			}
		}
	}
	sc.pkts = append(sc.pkts[:0], sc.bufs...)
	for i := range sc.ats {
		sc.ats[i] = sc.ats[i].AddDate(1, 0, i)
	}
	scratchPool.Put(sc)
}

// KeptPermutation returns the permutation t keeps for its next scan, or nil.
func KeptPermutation(t *TargetSet) *Permutation { return t.perm.Load() }
