package rtree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"subzero/internal/binenc"
	"subzero/internal/grid"
)

// Encode serializes the tree's items (rank, count, then rect+id per item,
// in tree order): the bytes whose length EncodedLen is. Nothing in the
// program writes them; the tests pin trees through them.
func (t *Tree) Encode() []byte {
	buf := make([]byte, 0, 16+t.size*12)
	buf = binary.AppendUvarint(buf, uint64(t.rank))
	buf = binary.AppendUvarint(buf, uint64(t.size))
	t.Walk(all, func(id uint64, lo, hi []int) bool {
		buf = binenc.AppendRect(buf, grid.Rect{Lo: lo, Hi: hi})
		buf = binary.AppendUvarint(buf, id)
		return true
	})
	return buf
}

// goldenItems is a seeded insert sequence with many ties: small extents in
// a small universe, so equal enlargements, equal areas and duplicate
// rectangles all reach the choose-leaf and quadratic-split tie-breaks.
func goldenItems(rank, n int) []Item {
	rng := rand.New(rand.NewSource(int64(100 + rank)))
	items := make([]Item, n)
	for i := range items {
		lo, hi := make(grid.Coord, rank), make(grid.Coord, rank)
		for d := range lo {
			lo[d] = rng.Intn(300)
			hi[d] = lo[d] + rng.Intn(4)*rng.Intn(5)
		}
		items[i] = Item{Rect: grid.Rect{Lo: lo, Hi: hi}, ID: uint64(rng.Intn(1 << 20))}
	}
	return items
}

// The node layout may change but the trees it builds may not: Encode's
// bytes after a seeded insert sequence — and after the STR bulk loader
// rebuilds the tree from those items in that order, as a Many store's Flush
// loads its index — are pinned to the hashes of the pointer-per-entry
// implementation this package replaced. A different choose-leaf rule,
// split tie-break, entry order or tiling order changes them.
func TestEncodeGoldenBytes(t *testing.T) {
	golden := map[string]string{
		"rank1/fanout16/insert": "dabb437ee7c145a72c6ff60848aac344e2c681c381dbf01e8425713ef55e3e86",
		"rank1/fanout16/bulk":   "08ae223d629a732241cba96970536bd138ca9da6d4e64c74a7980934a617a9ec",
		"rank1/fanout4/insert":  "b52309ac5e1b61a5cd2007173c205749c64bef99402109050a20d84fa0c8adf3",
		"rank1/fanout4/bulk":    "2a5b33e30d92520c98ab9473928965f9647b56206ce82f254e4400e6057d89c1",
		"rank2/fanout16/insert": "5ca124e0e48eb54265f443ca8c181628f38e3bbe717e1f53ec1634f8609b5180",
		"rank2/fanout16/bulk":   "81024af9147dfb7d7443a4bf064f435e153a531d40937176d2c2ceb78fe72b61",
		"rank2/fanout4/insert":  "a97ca36ffd770beecd1d9c6bff5d7618127601bd038e3523e328cce44421e31d",
		"rank2/fanout4/bulk":    "a3081a076a70b2c899b2740e10f328dd65c3f20dcacfff36988c46a8aec07ca8",
		"rank3/fanout16/insert": "cc9f2059e7c5537a4c85adbec6c29fe23c72a34f505e4992e9af78a9910e20b8",
		"rank3/fanout16/bulk":   "dbc2bbe904bac718a2dbe3c9a54d50eda1235e240a032617d28945e8054fd4f3",
		"rank3/fanout4/insert":  "91c5f7aa5494060a2adc0c350209eac9301f938a8a8c2485a5bf46b6a40f7d15",
		"rank3/fanout4/bulk":    "5808f7f7f2c8f0ebd4193dae9eaa6602cd8558c40501ea016e26c1a55b1a638e",
	}
	for rank := 1; rank <= 3; rank++ {
		items := goldenItems(rank, 5000)
		for _, fanout := range []int{16, 4} {
			tr := NewWithFanout(rank, fanout)
			for _, it := range items {
				if err := tr.Insert(it); err != nil {
					t.Fatal(err)
				}
			}
			var boxes []int
			var ids []uint64
			tr.Walk(all, func(id uint64, lo, hi []int) bool {
				boxes = append(append(boxes, lo...), hi...)
				ids = append(ids, id)
				return true
			})
			bulk := BulkLoadBoxes(rank, boxes, ids)
			for _, c := range []struct {
				kind string
				b    []byte
			}{{"insert", tr.Encode()}, {"bulk", bulk.Encode()}} {
				name := fmt.Sprintf("rank%d/fanout%d/%s", rank, fanout, c.kind)
				sum := sha256.Sum256(c.b)
				if got := hex.EncodeToString(sum[:]); got != golden[name] {
					t.Errorf("%s: sha256 %s, want %s", name, got, golden[name])
				}
			}
		}
	}
}
