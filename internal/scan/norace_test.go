//go:build !race

package scan

// raceEnabled reports that the race detector is on; see race_test.go.
const raceEnabled = false
