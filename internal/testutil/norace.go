//go:build !race

package testutil

// RaceEnabled: see race.go.
const RaceEnabled = false
