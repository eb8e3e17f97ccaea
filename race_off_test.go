//go:build !race

package countrymon

// raceEnabled reports whether the race detector instruments this build.
// Under -race sync.Pool drops a share of what it is given (the wire's reply
// slabs, the scanner's scratch), so allocation counts only hold in
// uninstrumented builds.
const raceEnabled = false
