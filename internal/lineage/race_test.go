//go:build race

package lineage

// raceEnabled reports whether the race detector is on. In race mode
// sync.Pool drops a quarter of its Puts at random, so allocation bounds on
// paths that run through pooled scratch do not hold and their tests skip,
// as the standard library's malloc-count tests do.
const raceEnabled = true
