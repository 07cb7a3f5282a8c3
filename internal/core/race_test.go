//go:build race

package core

// The race detector makes sync.Pool drop a share of the values put back,
// so pooled decode staging allocates at random under -race.
func init() { raceEnabled = true }
