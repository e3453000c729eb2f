//go:build race

package core_test

// raceEnabled reports that the race detector is active: the scaled-world
// oracle suite skips itself there (it re-runs minutes of
// single-goroutine mining under a ~10x detector slowdown for no extra
// interleaving coverage; the worker sweeps cover the close-time pool at
// test scale).
const raceEnabled = true
