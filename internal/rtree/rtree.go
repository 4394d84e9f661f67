// Package rtree implements an in-memory R-tree over integer rectangles.
//
// SubZero's FullMany and PayMany encodings store one hash entry per region
// pair and "create an R-tree on the cells in the hash key to quickly find
// the entries that intersect with the query" (paper §VI-B). This package is
// the stdlib-only substitute for the libspatialindex dependency of the
// original prototype: an STR (sort-tile-recursive) bulk loader, which a
// lineage store runs once per index at its Flush and when it is reopened,
// and a compact serialization so the index can be persisted beside its
// store and charged against the storage budget. A Guttman insert with
// quadratic splits (Insert) is kept for incremental callers; the lineage
// store makes none.
//
// Nodes are flat: a node keeps its entries' boxes inline, 2·rank ints per
// entry (the low corner, then the high corner) in one slice, beside its
// children or its item ids. A bulk load carves each level's nodes from one
// node slice and its boxes and ids from one arena each; choose-leaf, the
// quadratic split and MBR refresh read and write coordinates in place, so
// an insert allocates only when it creates a node. grid.Rect and Item
// appear only at the API boundary. There is one traversal, Walk, driven by
// a predicate over boxes: Search is Walk with a rectangle-overlap
// predicate, and the lineage store walks once per lookup with a predicate
// that tests each box against the query bitmap.
package rtree

import (
	"fmt"
	"math"
	"slices"

	"subzero/internal/grid"
)

// DefaultMaxEntries is the default node fan-out. Nodes split when they
// exceed it; the minimum fill is DefaultMaxEntries*minFillRatio.
const DefaultMaxEntries = 16

const minFillRatio = 0.4

// Item is a rectangle with an opaque identifier (a lineage pair id).
type Item struct {
	Rect grid.Rect
	ID   uint64
}

// node is one tree node. Entry i's box is boxes[i*w : (i+1)*w] with
// w = 2·rank: its low corner, then its high corner. An internal node's
// entry i is the MBR of kids[i]; a leaf's entry i is the item ids[i].
type node struct {
	leaf  bool
	boxes []int
	kids  []*node
	ids   []uint64
}

// len returns the number of entries.
func (n *node) len() int { return len(n.kids) + len(n.ids) }

// Tree is an R-tree. The zero value is not usable; call New or BulkLoad.
// Tree is not safe for concurrent mutation; concurrent Search and Walk
// are safe.
type Tree struct {
	root       *node
	rank       int
	maxEntries int
	minEntries int
	size       int

	// Insert scratch, reused so that an insert allocates only new nodes.
	box   []int      // the box being inserted
	path  []pathStep // ancestors of the chosen leaf
	split splitScratch
}

// pathStep is an ancestor on an insert path and the entry taken from it.
type pathStep struct {
	n *node
	i int
}

// splitScratch holds the entries of a node being split and the running
// MBRs of the two groups.
type splitScratch struct {
	boxes        []int
	kids         []*node
	ids          []uint64
	rest         []int
	rectA, rectB []int
}

// New creates an empty tree for rectangles of the given rank.
func New(rank int) *Tree {
	return NewWithFanout(rank, DefaultMaxEntries)
}

// NewWithFanout creates an empty tree with a custom node fan-out (>= 4).
func NewWithFanout(rank, maxEntries int) *Tree {
	t := newTree(rank, maxEntries)
	t.root = t.newNode(true)
	return t
}

// newTree returns a tree without a root.
func newTree(rank, maxEntries int) *Tree {
	if rank <= 0 {
		panic(fmt.Sprintf("rtree: invalid rank %d", rank))
	}
	if maxEntries < 4 {
		maxEntries = 4
	}
	minEntries := int(float64(maxEntries) * minFillRatio)
	if minEntries < 2 {
		minEntries = 2
	}
	return &Tree{
		rank:       rank,
		maxEntries: maxEntries,
		minEntries: minEntries,
	}
}

// newNode makes a node with room for one entry past the fan-out, the
// overflow a split resolves.
func (t *Tree) newNode(leaf bool) *node {
	n := &node{leaf: leaf, boxes: make([]int, 0, (t.maxEntries+1)*2*t.rank)}
	if leaf {
		n.ids = make([]uint64, 0, t.maxEntries+1)
	} else {
		n.kids = make([]*node, 0, t.maxEntries+1)
	}
	return n
}

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return t.size }

// Rank returns the dimensionality of the indexed rectangles.
func (t *Tree) Rank() int { return t.rank }

// Insert adds an item to the tree.
func (t *Tree) Insert(it Item) error {
	if err := it.Rect.Validate(); err != nil {
		return err
	}
	if it.Rect.Rank() != t.rank {
		return fmt.Errorf("rtree: rect rank %d, tree rank %d", it.Rect.Rank(), t.rank)
	}
	t.box = append(append(t.box[:0], it.Rect.Lo...), it.Rect.Hi...)
	leaf := t.chooseLeaf(t.box)
	leaf.boxes = append(leaf.boxes, t.box...)
	leaf.ids = append(leaf.ids, it.ID)
	t.adjust(leaf)
	t.size++
	return nil
}

// chooseLeaf descends to the leaf whose MBR needs least enlargement to
// take box (ties to the smaller MBR, then the earlier entry), recording
// the path of ancestors for upward adjustment.
func (t *Tree) chooseLeaf(box []int) *node {
	t.path = t.path[:0]
	n := t.root
	w := 2 * t.rank
	for !n.leaf {
		best := 0
		bestEnl, bestArea := math.Inf(1), math.Inf(1)
		for i, o := 0, 0; o < len(n.boxes); i, o = i+1, o+w {
			e := n.boxes[o : o+w]
			area := t.area(e)
			enl := t.unionArea(e, box) - area
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		t.path = append(t.path, pathStep{n, best})
		n = n.kids[best]
	}
	return n
}

// adjust walks from a modified leaf to the root, splitting overflowing
// nodes and refreshing ancestor MBRs.
func (t *Tree) adjust(n *node) {
	w := 2 * t.rank
	for {
		var split *node
		if n.len() > t.maxEntries {
			split = t.splitNode(n)
		}
		if len(t.path) == 0 {
			if split != nil {
				// Root split: grow the tree.
				root := t.newNode(false)
				root.boxes = t.appendMBR(t.appendMBR(root.boxes, n), split)
				root.kids = append(root.kids, n, split)
				t.root = root
			}
			return
		}
		step := t.path[len(t.path)-1]
		t.path = t.path[:len(t.path)-1]
		parent := step.n
		t.setMBR(parent.boxes[step.i*w:(step.i+1)*w], n)
		if split != nil {
			parent.boxes = t.appendMBR(parent.boxes, split)
			parent.kids = append(parent.kids, split)
		}
		n = parent
	}
}

// splitNode performs Guttman's quadratic split: n keeps group A and the
// returned sibling takes group B, each in the order entries joined it.
func (t *Tree) splitNode(n *node) *node {
	w := 2 * t.rank
	s := &t.split
	s.boxes = append(s.boxes[:0], n.boxes...)
	s.kids = append(s.kids[:0], n.kids...)
	s.ids = append(s.ids[:0], n.ids...)
	box := func(k int) []int { return s.boxes[k*w : (k+1)*w] }
	cnt := n.len()

	// Pick seeds: the pair wasting the most area if grouped together.
	si, sj, worst := 0, 1, math.Inf(-1)
	for i := 0; i < cnt; i++ {
		for j := i + 1; j < cnt; j++ {
			d := t.unionArea(box(i), box(j)) - t.area(box(i)) - t.area(box(j))
			if d > worst {
				si, sj, worst = i, j, d
			}
		}
	}
	sib := t.newNode(n.leaf)
	n.boxes, n.kids, n.ids = n.boxes[:0], n.kids[:0], n.ids[:0]
	move := func(dst *node, k int) {
		dst.boxes = append(dst.boxes, box(k)...)
		if n.leaf {
			dst.ids = append(dst.ids, s.ids[k])
		} else {
			dst.kids = append(dst.kids, s.kids[k])
		}
	}
	move(n, si)
	move(sib, sj)
	s.rectA = append(s.rectA[:0], box(si)...)
	s.rectB = append(s.rectB[:0], box(sj)...)
	s.rest = s.rest[:0]
	for k := 0; k < cnt; k++ {
		if k != si && k != sj {
			s.rest = append(s.rest, k)
		}
	}
	for len(s.rest) > 0 {
		// Force assignment if one group must take all remaining entries
		// to reach minimum fill.
		if n.len()+len(s.rest) == t.minEntries {
			for _, k := range s.rest {
				move(n, k)
			}
			break
		}
		if sib.len()+len(s.rest) == t.minEntries {
			for _, k := range s.rest {
				move(sib, k)
			}
			break
		}
		// Pick next: entry with greatest preference for one group.
		bestK, bestDiff := 0, -1.0
		var bestDA, bestDB float64
		for k, e := range s.rest {
			dA := t.unionArea(s.rectA, box(e)) - t.area(s.rectA)
			dB := t.unionArea(s.rectB, box(e)) - t.area(s.rectB)
			diff := math.Abs(dA - dB)
			if diff > bestDiff {
				bestK, bestDiff, bestDA, bestDB = k, diff, dA, dB
			}
		}
		e := s.rest[bestK]
		s.rest = append(s.rest[:bestK], s.rest[bestK+1:]...)
		// Ties go to the smaller group, then to A.
		if bestDA < bestDB || (bestDA == bestDB && n.len() <= sib.len()) {
			move(n, e)
			t.extend(s.rectA, box(e))
		} else {
			move(sib, e)
			t.extend(s.rectB, box(e))
		}
	}
	return sib
}

// area returns the number of cells a box covers, as the float the
// choose-leaf and split heuristics compare.
func (t *Tree) area(b []int) float64 {
	a := 1.0
	for d := 0; d < t.rank; d++ {
		a *= float64(b[t.rank+d] - b[d] + 1)
	}
	return a
}

// unionArea returns the area of the smallest box covering a and b.
func (t *Tree) unionArea(a, b []int) float64 {
	r := t.rank
	area := 1.0
	for d := 0; d < r; d++ {
		area *= float64(max(a[r+d], b[r+d]) - min(a[d], b[d]) + 1)
	}
	return area
}

// extend grows box a in place to cover box b.
func (t *Tree) extend(a, b []int) {
	r := t.rank
	for d := 0; d < r; d++ {
		a[d] = min(a[d], b[d])
		a[r+d] = max(a[r+d], b[r+d])
	}
}

// setMBR overwrites box with the box covering every entry of n.
func (t *Tree) setMBR(box []int, n *node) {
	w := 2 * t.rank
	copy(box, n.boxes[:w])
	for o := w; o < len(n.boxes); o += w {
		t.extend(box, n.boxes[o:o+w])
	}
}

// appendMBR appends the box covering every entry of n.
func (t *Tree) appendMBR(dst []int, n *node) []int {
	off := len(dst)
	dst = append(dst, n.boxes[:2*t.rank]...)
	t.setMBR(dst[off:], n)
	return dst
}

// Walk is the tree's one traversal. keep is called with the box of every
// entry Walk reaches — an internal entry's MBR or an item's rectangle — as
// its low and high corners; Walk descends only into subtrees whose MBR
// keep accepts, and calls visit for every item keep accepts, in tree
// order, until visit returns false. A keep that accepts an MBR must
// accept it whenever it would accept a box inside it (as "holds a cell
// of the query" and "overlaps a rectangle" do), or Walk misses items.
// The corners alias the tree's storage: they are valid only during the
// call and must not be modified.
func (t *Tree) Walk(keep func(lo, hi []int) bool, visit func(id uint64, lo, hi []int) bool) {
	if t.size > 0 {
		t.walk(t.root, keep, visit)
	}
}

func (t *Tree) walk(n *node, keep func(lo, hi []int) bool, visit func(id uint64, lo, hi []int) bool) bool {
	r, w := t.rank, 2*t.rank
	boxes := n.boxes
	for i := 0; len(boxes) >= w; i, boxes = i+1, boxes[w:] {
		lo, hi := boxes[:r:r], boxes[r:w:w]
		if !keep(lo, hi) {
			continue
		}
		if n.leaf {
			if !visit(n.ids[i], lo, hi) {
				return false
			}
		} else if !t.walk(n.kids[i], keep, visit) {
			return false
		}
	}
	return true
}

// Search calls fn for every item whose rectangle intersects q, until fn
// returns false. The traversal order is unspecified. The item's Rect
// aliases the tree's storage: it is valid only during the call and must
// not be modified.
func (t *Tree) Search(q grid.Rect, fn func(Item) bool) {
	if q.Rank() != t.rank || len(q.Hi) != t.rank {
		return
	}
	qlo, qhi := q.Lo, q.Hi
	t.Walk(func(lo, hi []int) bool {
		for d, l := range lo {
			if hi[d] < qlo[d] || qhi[d] < l {
				return false
			}
		}
		return true
	}, func(id uint64, lo, hi []int) bool {
		return fn(Item{Rect: grid.Rect{Lo: lo, Hi: hi}, ID: id})
	})
}

// SearchPoint calls fn for every item whose rectangle contains the
// coordinate.
func (t *Tree) SearchPoint(c grid.Coord, fn func(Item) bool) {
	t.Search(grid.Rect{Lo: c, Hi: c}, fn)
}

// all is the Walk predicate that keeps every box.
func all(_, _ []int) bool { return true }

// Height returns the number of levels (1 for a lone leaf root).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.kids[0] {
		h++
	}
	return h
}

// BulkLoad builds a tree from items using sort-tile-recursive packing,
// which produces better-clustered nodes than repeated insertion. Every
// item's rectangle must have the tree's rank.
func BulkLoad(rank int, items []Item) *Tree {
	boxes := make([]int, 0, len(items)*2*rank)
	ids := make([]uint64, len(items))
	for i, it := range items {
		boxes = append(append(boxes, it.Rect.Lo...), it.Rect.Hi...)
		ids[i] = it.ID
	}
	return BulkLoadBoxes(rank, boxes, ids)
}

// BulkLoadBoxes is BulkLoad over flat boxes: item i's box is
// boxes[i*2·rank:(i+1)*2·rank], its low corner then its high corner, and
// its id is ids[i]. It neither keeps nor modifies the two slices. Each
// level of the tree is carved from one node slice, one box arena and one
// id (or child) arena, so the load allocates a few times per level, not
// per node.
func BulkLoadBoxes(rank int, boxes []int, ids []uint64) *Tree {
	if len(ids) == 0 {
		return New(rank)
	}
	t := newTree(rank, DefaultMaxEntries)
	t.size = len(ids)
	// A level has about one node per maxEntries entries of the level below.
	nodes := len(ids)/t.maxEntries + 1
	l := loader{
		t:     t,
		order: make([]int, len(ids)),
		cuts:  make([]int, 0, nodes),
		keys:  make([]centreKey, len(ids)),
		tmp:   make([]centreKey, len(ids)),
	}
	level := l.pack(true, boxes, ids, nil)
	// Build upper levels by tiling node MBRs until one node remains.
	mbrs := make([]int, 0, nodes*2*rank)
	for len(level) > 1 {
		mbrs = mbrs[:0]
		for i := range level {
			mbrs = t.appendMBR(mbrs, &level[i])
		}
		level = l.pack(false, mbrs, nil, level)
	}
	t.root = &level[0]
	return t
}

// loader holds the scratch one bulk load reuses across levels: the STR
// order of the level's entries, the end of each of its groups, and
// sortByCentre's keys.
type loader struct {
	t         *Tree
	order     []int
	cuts      []int
	keys, tmp []centreKey
}

// pack STR-tiles one level's entries — boxes plus ids for leaves, or the
// nodes of the level below for internal nodes — into nodes of at most
// maxEntries entries.
func (l *loader) pack(leaf bool, boxes []int, ids []uint64, kids []node) []node {
	w := 2 * l.t.rank
	n := len(boxes) / w
	order := l.order[:n]
	for i := range order {
		order[i] = i
	}
	l.cuts = l.cuts[:0]
	l.tile(order, boxes, 0, 0)
	nodes := make([]node, len(l.cuts))
	arena := make([]int, n*w)
	var idArena []uint64
	var kidArena []*node
	if leaf {
		idArena = make([]uint64, n)
	} else {
		kidArena = make([]*node, n)
	}
	from := 0
	for gi, end := range l.cuts {
		nd := &nodes[gi]
		nd.leaf = leaf
		// Capping each node's capacity keeps a later Insert's append from
		// running into its neighbour.
		nd.boxes = arena[from*w : end*w : end*w]
		for j, k := range order[from:end] {
			copy(nd.boxes[j*w:(j+1)*w], boxes[k*w:(k+1)*w])
			if leaf {
				idArena[from+j] = ids[k]
			} else {
				kidArena[from+j] = &kids[k]
			}
		}
		if leaf {
			nd.ids = idArena[from:end:end]
		} else {
			nd.kids = kidArena[from:end:end]
		}
		from = end
	}
	return nodes
}

// tile recursively sorts entry indices by the centre of their boxes along
// successive dimensions and chops them into groups of at most fanout
// entries (STR packing). order is sorted in place, so the groups are its
// consecutive runs; tile appends the end of each, offset by base, to
// l.cuts.
func (l *loader) tile(order, boxes []int, base, dim int) {
	rank, fanout := l.t.rank, l.t.maxEntries
	if len(order) <= fanout {
		l.cuts = append(l.cuts, base+len(order))
		return
	}
	l.sortByCentre(order, boxes, dim)
	if dim == rank-1 {
		for i := 0; i < len(order); i += fanout {
			l.cuts = append(l.cuts, base+min(i+fanout, len(order)))
		}
		return
	}
	nGroups := int(math.Ceil(float64(len(order)) / float64(fanout)))
	slabs := int(math.Ceil(math.Pow(float64(nGroups), 1/float64(rank-dim))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := int(math.Ceil(float64(len(order)) / float64(slabs)))
	for i := 0; i < len(order); i += slabSize {
		end := min(i+slabSize, len(order))
		l.tile(order[i:end], boxes, base+i, dim+1)
	}
}

// centreKey is an entry's sort key in sortByCentre — twice its box's
// centre along one dimension, less the least such key — and its index.
type centreKey struct {
	key uint64
	idx int
}

// sortByCentre stably sorts entry indices by the centre of their boxes
// along dim, with an LSD byte radix sort that skips the bytes no two keys
// differ in.
func (l *loader) sortByCentre(order, boxes []int, dim int) {
	rank, w := l.t.rank, 2*l.t.rank
	keys, tmp := l.keys[:len(order)], l.tmp[:len(order)]
	least := math.MaxInt
	for pos, k := range order {
		// lo+hi orders the entries as their centres would.
		c := boxes[k*w+dim] + boxes[k*w+rank+dim]
		keys[pos] = centreKey{uint64(c), k}
		least = min(least, c)
	}
	var bits uint64
	for i := range keys {
		keys[i].key -= uint64(least)
		bits |= keys[i].key
	}
	src, dst := keys, tmp
	for shift := 0; shift < 64 && bits>>shift != 0; shift += 8 {
		var count [256]int
		for _, k := range src {
			count[byte(k.key>>shift)]++
		}
		if count[byte(src[0].key>>shift)] == len(src) {
			continue
		}
		sum := 0
		for b, c := range count {
			count[b], sum = sum, sum+c
		}
		for _, k := range src {
			b := byte(k.key >> shift)
			dst[count[b]] = k
			count[b]++
		}
		src, dst = dst, src
	}
	for i, k := range src {
		order[i] = k.idx
	}
}

// CheckInvariants validates structural invariants (every child MBR is
// contained in its parent entry rect, leaf depth uniform, fill bounds).
// Used by tests.
func (t *Tree) CheckInvariants() error {
	w := 2 * t.rank
	depth := -1
	var walk func(n *node, level int, root bool) error
	walk = func(n *node, level int, root bool) error {
		if len(n.boxes) != n.len()*w || (n.leaf && n.kids != nil) || (!n.leaf && n.ids != nil) {
			return fmt.Errorf("rtree: node holds %d coordinates for %d entries", len(n.boxes), n.len())
		}
		if !root && (n.len() < t.minEntries || n.len() > t.maxEntries) {
			// Bulk-loaded trees may have one under-filled trailing node
			// per level; allow >=1 instead of strict minimum.
			if n.len() < 1 || n.len() > t.maxEntries {
				return fmt.Errorf("rtree: node fill %d outside [1,%d]", n.len(), t.maxEntries)
			}
		}
		if n.leaf {
			if depth == -1 {
				depth = level
			} else if depth != level {
				return fmt.Errorf("rtree: leaves at depths %d and %d", depth, level)
			}
			return nil
		}
		for i, kid := range n.kids {
			if kid == nil {
				return fmt.Errorf("rtree: internal entry without child")
			}
			if kid.len() == 0 {
				return fmt.Errorf("rtree: empty child node")
			}
			got, want := n.boxes[i*w:(i+1)*w], t.appendMBR(nil, kid)
			if !slices.Equal(got, want) {
				return fmt.Errorf("rtree: stale MBR %v for child MBR %v", got, want)
			}
			if err := walk(kid, level+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, 0, true)
}
