//go:build race

package sim

// Under the race detector sync.Pool drops a random quarter of the values
// put into it, so pooled reuse is not measurable.
func init() { raceEnabled = true }
