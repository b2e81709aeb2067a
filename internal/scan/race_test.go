//go:build race

package scan

// raceEnabled reports that the race detector is on. It makes sync.Pool
// drop a share of what is put back, so the pooled paths' allocations
// cannot be counted.
const raceEnabled = true
