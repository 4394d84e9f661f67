package lineage

import (
	"fmt"

	"subzero/internal/grid"
)

// RegionPair is the unit of region lineage (paper §IV): an all-to-all
// relationship between a set of output cells and one set of input cells
// per operator input, or — for payload lineage — between a set of output
// cells and an opaque payload interpreted by the operator's map_p.
//
// Cell sets are sorted, deduplicated row-major linear indices within their
// array's space.
type RegionPair struct {
	// Out is the set of output cells.
	Out []uint64
	// Ins holds one input cell set per operator input; nil for payload
	// pairs.
	Ins [][]uint64
	// Payload is the operator-defined blob for Pay/Comp lineage; nil for
	// full pairs.
	Payload []byte
}

// IsPayload reports whether the pair carries a payload instead of explicit
// input cells.
func (rp *RegionPair) IsPayload() bool { return rp.Ins == nil }

// Normalize sorts and deduplicates all cell sets in place.
func (rp *RegionPair) Normalize() {
	rp.Out = grid.SortCells(rp.Out)
	for i := range rp.Ins {
		rp.Ins[i] = grid.SortCells(rp.Ins[i])
	}
}

// Validate checks the pair against the operator's output/input spaces.
// Sets must be sorted (call Normalize first) and in range.
func (rp *RegionPair) Validate(outSpace *grid.Space, inSpaces []*grid.Space) error {
	if len(rp.Out) == 0 {
		return fmt.Errorf("lineage: region pair with empty output set")
	}
	if rp.Payload != nil && rp.Ins != nil {
		return fmt.Errorf("lineage: region pair has both payload and input cells")
	}
	if err := checkCells(rp.Out, outSpace.Size(), outSide); err != nil {
		return err
	}
	if rp.Ins != nil {
		if len(rp.Ins) != len(inSpaces) {
			return fmt.Errorf("lineage: region pair has %d input sets, operator has %d inputs",
				len(rp.Ins), len(inSpaces))
		}
		for i, in := range rp.Ins {
			if err := checkCells(in, inSpaces[i].Size(), i); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkCells checks one cell set of a pair, side naming it as in
// record.side. The set's label is built only for the error, so a valid
// pair validates without allocating.
func checkCells(cells []uint64, size uint64, side int) error {
	for i, c := range cells {
		if c >= size {
			return fmt.Errorf("lineage: %s cell %d out of range (size %d)", sideLabel(side), c, size)
		}
		if i > 0 && cells[i-1] >= c {
			return fmt.Errorf("lineage: %s cells not sorted/deduplicated", sideLabel(side))
		}
	}
	return nil
}

func sideLabel(side int) string {
	if side == outSide {
		return "output"
	}
	return fmt.Sprintf("input %d", side)
}

// CellCount returns the total number of cells referenced by the pair, used
// by the statistics collector for fan-in/fan-out accounting.
func (rp *RegionPair) CellCount() (out, in int) {
	out = len(rp.Out)
	for _, s := range rp.Ins {
		in += len(s)
	}
	return out, in
}

// PayloadFn recomputes the input cells of input inputIdx for one output
// cell given the pair's payload — the operator's map_p (paper §V-A3).
// Implementations append to dst and return the extended slice; results
// need not be sorted.
type PayloadFn func(outCell uint64, payload []byte, inputIdx int, dst []uint64) []uint64
