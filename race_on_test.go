//go:build race

package countrymon

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
