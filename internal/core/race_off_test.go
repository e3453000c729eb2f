//go:build !race

package core_test

// raceEnabled mirrors race_on_test.go for non-race builds.
const raceEnabled = false
