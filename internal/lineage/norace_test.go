//go:build !race

package lineage

const raceEnabled = false
