//go:build race

package kvstore

// raceEnabled reports whether the race detector is on. In race mode
// sync.Pool drops a quarter of its Puts at random, so allocation bounds on
// paths that run through pooled state do not hold and their tests skip.
const raceEnabled = true
