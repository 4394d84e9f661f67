// Package wiretag is a lint fixture: every exported field of a
// Wire*-named DTO carries an explicit json tag and a wire-safe type.
package wiretag

import "time"

// WireGood is fully tagged with wire-safe types: not flagged.
type WireGood struct {
	ID        string         `json:"id"`
	ElapsedNS int64          `json:"elapsed_ns"`
	Pages     []WirePage     `json:"pages"`
	ByName    map[string]int `json:"by_name"`
}

// WirePage is a nested sibling DTO, checked at its own declaration.
type WirePage struct {
	N int `json:"n"`
}

// WireBad collects the tag violations.
type WireBad struct {
	Untagged int // want `WireBad\.Untagged has no json tag`
	hidden   int // want `WireBad\.hidden is unexported and will not serialize`
	Unnamed  int `json:",omitempty"` // want `WireBad\.Unnamed json tag has no field name`
}

// WireUnsafe collects the type violations.
type WireUnsafe struct {
	Elapsed time.Duration `json:"elapsed"` // want `time\.Duration on the wire: encode as integer nanoseconds`
	Stamp   time.Time     `json:"stamp"`   // want `time\.Time on the wire`
	Any     any           `json:"any"`     // want `interface types are not self-describing on the wire`
	Done    chan int      `json:"done"`    // want `channels cannot cross the wire`
}

// WireEmbed embeds a field, hiding part of the wire surface.
type WireEmbed struct {
	WireGood // want `WireEmbed embeds a field`
}

// plain is not a DTO: nothing in it is checked.
type plain struct {
	Elapsed time.Duration
	hidden  int
}

// WireSuppressed documents a deliberate exception.
type WireSuppressed struct {
	//lint:ignore subzero/wiretag fixture exercising the suppression path
	Raw any `json:"raw"`
}

// use keeps the unexported bits referenced so the fixture typechecks
// without tripping unused-symbol vet heuristics.
func use() (plain, WireBad) {
	var p plain
	p.hidden++
	var b WireBad
	b.hidden++
	return p, b
}

var _ = use
