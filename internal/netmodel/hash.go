package netmodel

// Deterministic hashing: every stochastic-but-reproducible choice in the tree
// — simulator ground truth, scenario compilation, fault injection, probe
// permutation seeds — is a pure function of (seed, identifiers) through these.

// Mix64 is the SplitMix64 step: the golden-ratio increment and the finalizer.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash2 mixes two values into a 64-bit hash.
func Hash2(a, b uint64) uint64 { return Mix64(Mix64(a) ^ b) }

// Hash3 mixes three values into a 64-bit hash.
func Hash3(a, b, c uint64) uint64 { return Mix64(Hash2(a, b) ^ Mix64(c)) }

// UnitFloat maps a hash to [0, 1).
func UnitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }
