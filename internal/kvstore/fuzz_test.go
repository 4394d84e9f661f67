package kvstore

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzMemMatchesFile applies one sequence of PutBatch (overwrites
// included) and Sync calls to a memory store and a file store, and
// requires the two to look the same from outside: the same Scan sequence,
// GetBatch answers, Len and SizeBytes. The backings
// share everything but where the log's bytes live, so any difference is a
// bug in one of the two places they differ.
func FuzzMemMatchesFile(f *testing.F) {
	f.Add([]byte{0, 3, 1, 5, 2, 9, 7, 3})
	f.Add([]byte{1, 7, 0, 0, 1, 1, 2, 250, 3, 2, 4, 0, 2, 0, 3, 3, 1, 1})
	f.Add([]byte{2, 5, 3, 0, 4, 1, 3, 255, 2, 0, 3, 1, 6, 4, 255, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		file, err := OpenFile(filepath.Join(t.TempDir(), "f.log"))
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		mem := NewMem()
		defer mem.Close()
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for len(ops) > 0 {
			switch next() % 3 {
			case 0, 1:
				kvs := make([]KV, next()%8)
				for i := range kvs {
					key := []byte{'k', byte(next() % 16)}
					n := next()
					if n >= 250 {
						n = (n - 249) << 16 // drains the file store's append buffer
					}
					kvs[i] = KV{Key: key, Val: bytes.Repeat([]byte{byte(n)}, n)}
				}
				for _, s := range []Store{file, mem} {
					if err := s.PutBatch(kvs); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				for _, s := range []Store{file, mem} {
					if err := s.Sync(); err != nil {
						t.Fatal(err)
					}
				}
				sameStores(t, file, mem)
			}
		}
		sameStores(t, file, mem)
	})
}

// sameStores fails unless a and b answer every read alike.
func sameStores(t *testing.T, a, b Store) {
	t.Helper()
	type rec struct{ key, val string }
	scan := func(s Store) []rec {
		var out []rec
		if err := s.Scan(func(k, v []byte) bool {
			out = append(out, rec{string(k), string(v)})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if sa, sb := scan(a), scan(b); !slices.Equal(sa, sb) {
		t.Fatalf("Scan sequences differ: %d records vs %d", len(sa), len(sb))
	}
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte{'k', byte(i)}
	}
	get := func(s Store) []string {
		out := make([]string, len(keys))
		if err := s.GetBatch(keys, func(i int, v []byte, ok bool) bool {
			if ok {
				out[i] = "=" + string(v)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if ga, gb := get(a), get(b); !slices.Equal(ga, gb) {
		t.Fatal("GetBatch answers differ")
	}
	if a.Len() != b.Len() || a.SizeBytes() != b.SizeBytes() {
		t.Fatalf("Len %d vs %d, SizeBytes %d vs %d", a.Len(), b.Len(), a.SizeBytes(), b.SizeBytes())
	}
}
