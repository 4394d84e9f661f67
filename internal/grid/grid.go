// Package grid provides the coordinate geometry underlying the SubZero
// array model: shapes, coordinates, rectangles, and the row-major
// linearization ("bit-packing" in the paper, §VI-B) used to address cells.
//
// Throughout the system a cell inside an n-dimensional array is identified
// either by a Coord (a vector of per-dimension positions) or, more
// compactly, by its row-major linear index within the array's Shape, stored
// as a uint64. All lineage encodings operate on linear indices; Coords
// appear only at API boundaries (mapping functions, user queries).
package grid

import (
	"fmt"
	"slices"
)

// Shape describes the extent of each dimension of an array. All extents are
// strictly positive.
type Shape []int

// Coord is a position inside an array: one value per dimension, each in
// [0, Shape[d]).
type Coord []int

// Validate returns an error unless every extent is positive and the total
// cell count fits in a uint64.
func (s Shape) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("grid: empty shape")
	}
	total := uint64(1)
	for d, n := range s {
		if n <= 0 {
			return fmt.Errorf("grid: shape dimension %d has non-positive extent %d", d, n)
		}
		next := total * uint64(n)
		if next/uint64(n) != total {
			return fmt.Errorf("grid: shape %v overflows uint64 cell count", []int(s))
		}
		total = next
	}
	return nil
}

// Size returns the total number of cells in the shape.
func (s Shape) Size() uint64 {
	total := uint64(1)
	for _, n := range s {
		total *= uint64(n)
	}
	return total
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Contains reports whether c is a valid coordinate within the shape.
func (s Shape) Contains(c Coord) bool {
	if len(c) != len(s) {
		return false
	}
	for d := range c {
		if c[d] < 0 || c[d] >= s[d] {
			return false
		}
	}
	return true
}

func (s Shape) String() string { return fmt.Sprintf("%v", []int(s)) }

// Clone returns an independent copy of the coordinate.
func (c Coord) Clone() Coord {
	o := make(Coord, len(c))
	copy(o, c)
	return o
}

// Equal reports whether two coordinates are identical.
func (c Coord) Equal(o Coord) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

func (c Coord) String() string { return fmt.Sprintf("%v", []int(c)) }

// Space is a Shape with precomputed strides; it performs the hot
// Coord<->linear-index conversions. A Space is immutable and safe for
// concurrent use.
type Space struct {
	shape   Shape
	strides []uint64
	size    uint64
}

// NewSpace builds a Space for the given shape. It panics on an invalid
// shape; callers constructing shapes from user input should call
// Shape.Validate first.
func NewSpace(shape Shape) *Space {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	sp := &Space{shape: shape.Clone(), strides: make([]uint64, len(shape))}
	stride := uint64(1)
	for d := len(shape) - 1; d >= 0; d-- {
		sp.strides[d] = stride
		stride *= uint64(shape[d])
	}
	sp.size = stride
	return sp
}

// Shape returns the space's shape. Callers must not modify it.
func (sp *Space) Shape() Shape { return sp.shape }

// Rank returns the number of dimensions.
func (sp *Space) Rank() int { return len(sp.shape) }

// Size returns the total number of cells.
func (sp *Space) Size() uint64 { return sp.size }

// Stride returns the distance in linear index between neighbouring cells
// along dimension d.
func (sp *Space) Stride(d int) uint64 { return sp.strides[d] }

// Ravel converts a coordinate to its row-major linear index. The coordinate
// must be inside the space.
func (sp *Space) Ravel(c Coord) uint64 {
	var idx uint64
	for d := range c {
		idx += uint64(c[d]) * sp.strides[d]
	}
	return idx
}

// Unravel converts a linear index back to a coordinate.
func (sp *Space) Unravel(idx uint64) Coord {
	c := make(Coord, len(sp.shape))
	sp.UnravelInto(idx, c)
	return c
}

// UnravelInto writes the coordinate for idx into dst, which must have
// length equal to the space's rank. It avoids allocation in hot loops: one
// division per dimension, and none for the last, whose stride is 1.
func (sp *Space) UnravelInto(idx uint64, dst Coord) {
	last := len(sp.strides) - 1
	dst = dst[:last+1]
	for d, stride := range sp.strides[:last] {
		q := idx / stride
		dst[d] = int(q)
		idx -= q * stride
	}
	dst[last] = int(idx)
}

// Rect is an axis-aligned hyper-rectangle with inclusive bounds, used for
// region bounding boxes and as the key type of the R-tree index.
type Rect struct {
	Lo, Hi Coord
}

// RectOf returns the degenerate rectangle covering a single coordinate.
func RectOf(c Coord) Rect {
	return Rect{Lo: c.Clone(), Hi: c.Clone()}
}

// Validate returns an error unless Lo and Hi have equal rank and Lo <= Hi
// in every dimension.
func (r Rect) Validate() error {
	if len(r.Lo) != len(r.Hi) {
		return fmt.Errorf("grid: rect rank mismatch %d vs %d", len(r.Lo), len(r.Hi))
	}
	if len(r.Lo) == 0 {
		return fmt.Errorf("grid: empty rect")
	}
	for d := range r.Lo {
		if r.Lo[d] > r.Hi[d] {
			return fmt.Errorf("grid: rect inverted in dimension %d: [%d,%d]", d, r.Lo[d], r.Hi[d])
		}
	}
	return nil
}

// Rank returns the dimensionality of the rectangle.
func (r Rect) Rank() int { return len(r.Lo) }

// Area returns the number of cells covered by the rectangle.
func (r Rect) Area() uint64 {
	area := uint64(1)
	for d := range r.Lo {
		area *= uint64(r.Hi[d] - r.Lo[d] + 1)
	}
	return area
}

// Contains reports whether the coordinate lies inside the rectangle.
func (r Rect) Contains(c Coord) bool {
	if len(c) != len(r.Lo) {
		return false
	}
	for d := range c {
		if c[d] < r.Lo[d] || c[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// Intersects reports whether the two rectangles share at least one cell.
func (r Rect) Intersects(o Rect) bool {
	if len(r.Lo) != len(o.Lo) {
		return false
	}
	for d := range r.Lo {
		if r.Hi[d] < o.Lo[d] || o.Hi[d] < r.Lo[d] {
			return false
		}
	}
	return true
}

// Clip intersects the rectangle with the bounds of the shape, returning
// false if the intersection is empty.
func (r Rect) Clip(s Shape) (Rect, bool) {
	c := Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
	if !c.Clamp(s) {
		return Rect{}, false
	}
	return c, true
}

// Clamp clips the rectangle to the bounds of the shape in place — it
// writes r's Lo and Hi — and reports whether any cell is left. Unlike Clip
// it allocates nothing.
func (r Rect) Clamp(s Shape) bool {
	for d := range r.Lo {
		r.Lo[d], r.Hi[d] = max(r.Lo[d], 0), min(r.Hi[d], s[d]-1)
		if r.Lo[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// Equal reports whether two rectangles have identical bounds.
func (r Rect) Equal(o Rect) bool { return r.Lo.Equal(o.Lo) && r.Hi.Equal(o.Hi) }

func (r Rect) String() string { return fmt.Sprintf("[%v..%v]", []int(r.Lo), []int(r.Hi)) }

// Cells appends the linear indices of every cell in the rectangle to dst
// and returns the extended slice; indices are produced in ascending order.
// It allocates only when dst must grow.
func (r Rect) Cells(sp *Space, dst []uint64) []uint64 {
	return sp.appendBox(r.Lo, r.Hi, 0, 0, dst)
}

// appendBox appends the cells of the box [lo, hi] whose coordinates before
// dimension d are fixed in base, row by row: along the last dimension, whose
// stride is 1, a row is consecutive indices.
func (sp *Space) appendBox(lo, hi Coord, d int, base uint64, dst []uint64) []uint64 {
	if d == len(lo)-1 {
		for x := lo[d]; x <= hi[d]; x++ {
			dst = append(dst, base+uint64(x))
		}
		return dst
	}
	for x := lo[d]; x <= hi[d]; x++ {
		dst = sp.appendBox(lo, hi, d+1, base+uint64(x)*sp.strides[d], dst)
	}
	return dst
}

// BoundingBox returns the smallest rectangle covering the given linear
// indices within the space. It returns ok=false for an empty input.
func BoundingBox(sp *Space, cells []uint64) (Rect, bool) {
	box, ok := AppendBoundingBox(nil, sp, cells)
	if !ok {
		return Rect{}, false
	}
	r := sp.Rank()
	return Rect{Lo: box[:r:r], Hi: box[r : 2*r : 2*r]}, true
}

// AppendBoundingBox appends the box BoundingBox returns, as its low corner
// then its high corner (2·rank ints), to dst. For an empty input it returns
// dst unchanged and ok=false. It allocates only when dst must grow.
func AppendBoundingBox(dst []int, sp *Space, cells []uint64) ([]int, bool) {
	if len(cells) == 0 {
		return dst, false
	}
	r, off := sp.Rank(), len(dst)
	// The corners go first; the rank ints after them hold each unraveled
	// cell.
	dst = slices.Grow(dst, 3*r)[:off+3*r]
	lo, hi, c := dst[off:off+r], dst[off+r:off+2*r], Coord(dst[off+2*r:off+3*r])
	sp.UnravelInto(cells[0], lo)
	copy(hi, lo)
	for _, idx := range cells[1:] {
		sp.UnravelInto(idx, c)
		for d := range c {
			lo[d] = min(lo[d], c[d])
			hi[d] = max(hi[d], c[d])
		}
	}
	return dst[:off+2*r], true
}

// stackRank is the largest rank whose box corners Neighborhood keeps in a
// stack array; higher ranks allocate them.
const stackRank = 4

// Neighborhood appends the linear indices of all cells within Chebyshev
// distance radius of center (clipped to the space bounds) to dst and
// returns the extended slice. With radius 0 it appends only the center.
// This is the access pattern of local image operators such as convolution
// and the paper's cosmic-ray detector. Up to rank 4 it allocates only when
// dst must grow.
func Neighborhood(sp *Space, center Coord, radius int, dst []uint64) []uint64 {
	var corners [2 * stackRank]int
	box := corners[:]
	if len(center) > stackRank {
		box = make([]int, 2*len(center))
	}
	lo, hi := Coord(box[:len(center)]), Coord(box[len(center):2*len(center)])
	for d, c := range center {
		lo[d], hi[d] = c-radius, c+radius
	}
	if !(Rect{Lo: lo, Hi: hi}).Clamp(sp.shape) {
		return dst
	}
	return sp.appendBox(lo, hi, 0, 0, dst)
}

// SortCells sorts a slice of linear indices in ascending order and removes
// duplicates in place, returning the shortened slice. Operators almost
// always emit their cells in order, so a set that is already strictly
// increasing returns after one pass, untouched. It never allocates.
func SortCells(cells []uint64) []uint64 {
	for i := 1; i < len(cells); i++ {
		if cells[i] <= cells[i-1] {
			slices.Sort(cells)
			return slices.Compact(cells)
		}
	}
	return cells
}
