//go:build race

package query_test

// raceEnabled reports whether the race detector is on: sync.Pool then drops
// a quarter of its Puts at random, so allocation pins on steps that run
// through the store's pooled lookup scratch do not hold and skip.
const raceEnabled = true
