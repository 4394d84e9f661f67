package bitmap

import (
	"math/rand"
	"testing"
)

func randBlock(rng *rand.Rand) *[BlockWords]uint64 {
	var blk [BlockWords]uint64
	for i := range blk {
		blk[i] = rng.Uint64() & rng.Uint64() // ~25% density
	}
	return &blk
}

// OrBlock must agree with setting the block's bits one by one, including
// the count of freshly set cells, and clip at the space edge.
func TestOrBlockMatchesSetLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sp := space(3000) // not a multiple of 64·BlockWords
	for trial := 0; trial < 50; trial++ {
		got := New(sp)
		want := New(sp)
		// Pre-populate both so "newly set" counting is exercised.
		for i := 0; i < 200; i++ {
			c := uint64(rng.Intn(3000))
			got.Set(c)
			want.Set(c)
		}
		base := uint64(rng.Intn(4)) * 64 * uint64(rng.Intn(4))
		base = (base / 64) * 64 // 64-aligned
		if trial%3 == 0 {
			base = 2944 // block straddles the 3000-cell space edge
		}
		blk := randBlock(rng)

		before := want.Count()
		for wi := 0; wi < BlockWords; wi++ {
			for b := 0; b < 64; b++ {
				if blk[wi]&(uint64(1)<<b) != 0 {
					want.Set(base + uint64(wi)*64 + uint64(b))
				}
			}
		}
		added := got.OrBlock(base, blk)
		if added != want.Count()-before {
			t.Fatalf("trial %d: OrBlock added %d, set loop added %d", trial, added, want.Count()-before)
		}
		if got.Count() != want.Count() {
			t.Fatalf("trial %d: counts differ: %d vs %d", trial, got.Count(), want.Count())
		}
		for c := uint64(0); c < 3000; c++ {
			if got.Get(c) != want.Get(c) {
				t.Fatalf("trial %d: cell %d differs", trial, c)
			}
		}
	}
}

func TestOrBlockClipsAtSpaceEdge(t *testing.T) {
	b := New(space(100))
	var blk [BlockWords]uint64
	for i := range blk {
		blk[i] = ^uint64(0)
	}
	if added := b.OrBlock(64, &blk); added != 36 {
		t.Fatalf("OrBlock past edge added %d, want 36", added)
	}
	if b.Count() != 36 {
		t.Fatalf("count = %d, want 36", b.Count())
	}
	// A base entirely past the space is a no-op.
	if added := b.OrBlock(1<<20, &blk); added != 0 {
		t.Fatalf("out-of-space OrBlock added %d", added)
	}
}

func TestAnyBlock(t *testing.T) {
	b := New(space(4096))
	var blk [BlockWords]uint64
	blk[7] = 1 << 13 // cell base+461
	if b.AnyBlock(1024, &blk) {
		t.Fatal("AnyBlock true on empty bitmap")
	}
	b.Set(1024 + 7*64 + 13)
	if !b.AnyBlock(1024, &blk) {
		t.Fatal("AnyBlock false on matching cell")
	}
	if b.AnyBlock(2048, &blk) {
		t.Fatal("AnyBlock true for wrong block base")
	}
	if b.AnyBlock(1<<30, &blk) {
		t.Fatal("AnyBlock true past the space")
	}
}

// Walking a bitmap with NextBlock visits exactly its non-empty blocks, in
// order, and the copied blocks OR back into the same set — including a
// last block the space cuts short.
func TestNextBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sp := space(5000) // the last block holds 5000-4096 cells
	for trial := 0; trial < 50; trial++ {
		b := New(sp)
		for i := rng.Intn(40); i > 0; i-- {
			b.Set(uint64(rng.Intn(5000)))
		}
		if trial%5 == 0 {
			b.Set(4999)
		}
		got := New(sp)
		var blk [BlockWords]uint64
		prev := -1
		for base, ok := b.NextBlock(0, &blk); ok; base, ok = b.NextBlock(base+BlockWords*64, &blk) {
			if base%(BlockWords*64) != 0 || int(base) <= prev {
				t.Fatalf("trial %d: block base %d after %d", trial, base, prev)
			}
			prev = int(base)
			if got.OrBlock(base, &blk) == 0 {
				t.Fatalf("trial %d: block %d holds no cell", trial, base)
			}
		}
		if got.Count() != b.Count() {
			t.Fatalf("trial %d: blocks hold %d cells, bitmap %d", trial, got.Count(), b.Count())
		}
		b.Iterate(func(c uint64) bool {
			if !got.Get(c) {
				t.Fatalf("trial %d: cell %d missing from the blocks", trial, c)
			}
			return true
		})
	}
}

// The word-parallel block ops are the inner loop of in-situ container
// probes; they must not allocate.
func TestBlockOpsAllocFree(t *testing.T) {
	b := New(space(1 << 16))
	var blk [BlockWords]uint64
	blk[3] = 0xDEADBEEF
	b.Set(5000)
	if n := testing.AllocsPerRun(100, func() {
		b.OrBlock(2048, &blk)
		b.AnyBlock(2048, &blk)
		b.NextBlock(0, &blk)
	}); n != 0 {
		t.Fatalf("block ops allocate %v per run, want 0", n)
	}
}
