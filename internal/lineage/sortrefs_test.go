package lineage

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// stableSort sorts a copy of refs with a stable comparison sort: by cell,
// then by payload bytes when pay is not nil. On references in ref order —
// what every writer passes — that is the order by cell and then by ref.
// On references out of ref order it keeps each cell's references in their
// input order, which is what the stable radix passes must do.
func stableSort(refs []cellRef, pay *payArena) []cellRef {
	out := slices.Clone(refs)
	slices.SortStableFunc(out, func(a, b cellRef) int {
		c := cmp.Compare(a.cell, b.cell)
		if c != 0 || pay == nil {
			return c
		}
		return bytes.Compare(pay.at(a.ref), pay.at(b.ref))
	})
	return out
}

// checkSortCellRefs runs sortCellRefs on a copy of refs and compares it
// with stableSort. Id stores must match reference for reference. Payload
// stores must match in what a tile value holds — each cell and its
// payloads' bytes, in order — since references to equal payloads under one
// cell may come out in either order.
func checkSortCellRefs(t *testing.T, refs []cellRef, pay *payArena) {
	t.Helper()
	want := stableSort(refs, pay)
	got := slices.Clone(refs)
	sortCellRefs(got, pay)
	if pay == nil {
		if !slices.Equal(got, want) {
			t.Fatalf("%d refs: radix order differs from the stable comparison sort", len(refs))
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d refs sorted into %d", len(want), len(got))
	}
	for i := range want {
		if got[i].cell != want[i].cell || !bytes.Equal(pay.at(got[i].ref), pay.at(want[i].ref)) {
			t.Fatalf("%d refs: entry %d is cell %d payload %v, want cell %d payload %v",
				len(refs), i, got[i].cell, pay.at(got[i].ref), want[i].cell, pay.at(want[i].ref))
		}
	}
}

// sortCase generates n references: cells below 2^cellBits, refs below
// 2^refBits shifted up by refShift, in ref order unless shuffled. With payloads, ref i indexes payload
// i of a returned arena whose payloads are short strings over a small
// alphabet, so equal payloads under one cell are common.
func sortCase(rng *rand.Rand, n int, cellBits, refBits, refShift uint, shuffled, payloads bool) ([]cellRef, *payArena) {
	refs := make([]cellRef, n)
	for i := range refs {
		refs[i] = cellRef{cell: rng.Uint64() >> (64 - cellBits), ref: (rng.Uint64() >> (64 - refBits)) << refShift}
	}
	var pay *payArena
	if payloads {
		pay = new(payArena)
		for i := range refs {
			p := make([]byte, rng.Intn(3))
			for j := range p {
				p[j] = byte(rng.Intn(2))
			}
			refs[i].ref = pay.add(p)
		}
	}
	if !shuffled {
		slices.SortStableFunc(refs, func(a, b cellRef) int { return cmp.Compare(a.ref, b.ref) })
	}
	return refs, pay
}

// sortCellRefs must order every buffer a writer passes — references in
// ref order — by cell and then by ref or payload bytes: empty, tiny and
// long buffers, all-equal cells, refs whose top byte alone varies, and
// payload stores whose cells list equal payloads more than once. The
// shuffled cases pass references out of ref order and pin the property
// the ordered ones rest on: the radix passes are stable, so each cell's
// references come out in their input order, and a payload store's order
// does not depend on it.
func TestSortCellRefs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 5000} {
		for _, c := range []struct {
			name               string
			cellBits, refBits  uint
			refShift           uint
			shuffled, payloads bool
		}{
			{"ids", 20, 16, 0, false, false},
			{"ids-shuffled", 20, 16, 0, true, false},
			{"equal-cells", 1, 16, 0, false, false},
			{"few-cells", 3, 16, 0, false, false},
			{"refs-2^56", 20, 8, 56, false, false},
			{"wide", 64, 64, 0, false, false},
			{"payloads", 4, 1, 0, false, true},
			{"payloads-shuffled", 4, 1, 0, true, true},
			{"payloads-one-cell", 1, 1, 0, false, true},
		} {
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				refs, pay := sortCase(rng, n, max(c.cellBits, 1), max(c.refBits, 1), c.refShift, c.shuffled, c.payloads)
				if c.name == "equal-cells" {
					for i := range refs {
						refs[i].cell = 77
					}
				}
				checkSortCellRefs(t, refs, pay)
			})
		}
	}
}

func FuzzSortCellRefs(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(20), uint8(16), uint8(0), true, false)
	f.Add(int64(2), uint16(40), uint8(20), uint8(16), uint8(0), false, false)
	f.Add(int64(3), uint16(1000), uint8(1), uint8(8), uint8(56), true, false)
	f.Add(int64(4), uint16(700), uint8(3), uint8(1), uint8(0), true, true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, cellBits, refBits, refShift uint8, shuffled, payloads bool) {
		cb, rb := uint(cellBits%64)+1, uint(refBits%64)+1
		rs := uint(refShift) % (65 - rb)
		refs, pay := sortCase(rand.New(rand.NewSource(seed)), int(n%4096), cb, rb, rs, shuffled, payloads)
		checkSortCellRefs(t, refs, pay)
	})
}
