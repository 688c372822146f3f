//go:build race

package testutil

// RaceEnabled reports whether the test binary was built with the race
// detector. Allocation-budget tests skip under it: sync.Pool drops a
// quarter of its Puts there by design, so pooled paths allocate.
const RaceEnabled = true
