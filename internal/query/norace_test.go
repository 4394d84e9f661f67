//go:build !race

package query_test

const raceEnabled = false
