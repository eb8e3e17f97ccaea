//go:build !race

package simnet

// raceEnabled reports whether the race detector instruments this build.
// Under -race append allocates where it otherwise would not, so the
// zero-alloc assertion only holds in uninstrumented builds.
const raceEnabled = false
