package binenc

import (
	"testing"
)

// The decoders must never panic or over-consume on arbitrary bytes, and
// encode→decode must be the identity on canonical inputs. Byte-exact
// decode→re-encode is deliberately NOT asserted: binary.Uvarint accepts
// non-minimal varints, so valid decodes of non-canonical bytes exist.
// Seed corpora come from the golden-bytes fixtures the unit tests pin.

func FuzzDecodeContainers(f *testing.F) {
	f.Add(AppendCellSetContainers(nil, nil))
	f.Add(AppendCellSetContainers(nil, []uint64{5, 9, 1024}))                                                       // sparse-direct golden
	f.Add(AppendCellSetContainers(nil, []uint64{100, 101, 102, 103, 104, 105, 106, 107, 108}))                      // run container
	f.Add(AppendCellSetContainers(nil, fullTile(0)))                                                                // full container
	f.Add(AppendCellSetContainers(nil, everyOther(2048, 512)))                                                      // bitmap container
	f.Add(AppendCellSetContainers(nil, []uint64{10, 500, 900, 2048, 3000, 1 << 40, 1<<40 + 999, 2 << 40, 3 << 40})) // array containers across far tiles
	f.Add([]byte{8, 1, 1, 1, 0, 4})                                                                                 // count mismatch
	f.Add([]byte{9, 1, 1, 1, 0, 0})                                                                                 // zero-length run
	f.Add([]byte{0x80})                                                                                             // truncated varint

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes: the two decoders — the streaming run decoder
		// and the tile walk the lookup path expands in situ — must never
		// panic or consume past the buffer, and must agree on what they
		// accept and on every cell of it. Full tiles cost one byte per
		// 1024 cells, so only sets of bounded size are materialized.
		const maxCells = 1 << 13
		total, n, err := WalkContainers(data, nil, nil)
		var runCells uint64
		rn, rerr := DecodeContainersInto(data, func(start, length uint64) bool {
			if length == 0 {
				t.Fatalf("decoder emitted a zero-length run at %d", start)
			}
			runCells += length
			return true
		})
		if (err == nil) != (rerr == nil) {
			t.Fatalf("decoders disagree on validity: walk %v, runs %v", err, rerr)
		}
		if err == nil {
			if n < 0 || n > len(data) || rn != n {
				t.Fatalf("consumed %d (walk) / %d (runs) of %d bytes", n, rn, len(data))
			}
			if runCells != total {
				t.Fatalf("runs cover %d cells, walk declares %d", runCells, total)
			}
			if total <= maxCells {
				streamed, _, _ := decodeCells(data)
				walked, _, werr := walkCells(data)
				if werr != nil {
					t.Fatalf("tile expansion rejects a set the walk accepted: %v", werr)
				}
				assertSameCells(t, "tile walk vs run decoder", walked, streamed)
			}
		}

		// Canonical path: derive a sorted cell set from the input (a mix
		// of adjacent and spread cells), encode it in container form, and
		// require both decoders to reproduce it exactly.
		limit := len(data)
		if limit > 4096 {
			limit = 4096
		}
		cells := make([]uint64, 0, limit)
		pos := uint64(0)
		for _, b := range data[:limit] {
			pos += uint64(b>>3) + 1 // gap 1 (consecutive) up to 32
			cells = append(cells, pos)
		}
		enc := AppendCellSetContainers(nil, cells)
		decoded, dn, err := decodeCells(enc)
		if err != nil || dn != len(enc) {
			t.Fatalf("decode canonical encoding = (%d, %v), want (%d, nil)", dn, err, len(enc))
		}
		assertSameCells(t, "canonical container round-trip", decoded, cells)
		walked, wn, err := walkCells(enc)
		if err != nil || wn != len(enc) {
			t.Fatalf("walk canonical encoding = (%d, %v), want (%d, nil)", wn, err, len(enc))
		}
		assertSameCells(t, "canonical tile walk", walked, cells)

		// Encode→decode must be a fixed point: re-encoding the decoded
		// set reproduces the canonical bytes (the rebuild-determinism
		// contract).
		re := AppendCellSetContainers(nil, decoded)
		if string(re) != string(enc) {
			t.Fatalf("re-encode differs: %v vs %v", re, enc)
		}
	})
}

func assertSameCells(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: cell %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}
