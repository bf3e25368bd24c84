//go:build race

package bench

// The race detector makes sync.Pool drop a random quarter of its puts, so
// tests that count what a warm pool saves skip under it.
func init() { raceEnabled = true }
