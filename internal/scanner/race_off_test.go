//go:build !race

package scanner_test

// raceEnabled reports whether the race detector instruments this build.
// Under -race append allocates where it otherwise would not and sync.Pool
// drops a share of what it is given, so the allocation budget only holds in
// uninstrumented builds.
const raceEnabled = false
