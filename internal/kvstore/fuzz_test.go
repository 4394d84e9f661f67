package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// flushedLog builds a real file store log (flushed) and returns its raw
// bytes — the honest seed corpus for the recovery fuzzer.
func flushedLog(t interface{ Fatal(...any) }, n int) []byte {
	dir, err := os.MkdirTemp("", "subzero-fuzz-seed")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%04d", i)
		val := fmt.Sprintf("val-%04d-%s", i, "payload")
		if err := putOne(s, []byte(key), []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// validPrefix is the reference recovery: it reads log the way a stream
// reader would — no mapping, no index — and returns what the longest run
// of well-framed, CRC-clean records from the start of the file says.
func validPrefix(log []byte) map[string]string {
	m := make(map[string]string)
	r := bytes.NewReader(log)
	for {
		var crc [crcSize]byte
		if _, err := io.ReadFull(r, crc[:]); err != nil {
			return m
		}
		klen, err := binary.ReadUvarint(r)
		if err != nil || klen > maxKeyLen {
			return m
		}
		vlen, err := binary.ReadUvarint(r)
		if err != nil || vlen > maxValLen {
			return m
		}
		body := binary.AppendUvarint(binary.AppendUvarint(nil, klen), vlen)
		framing := len(body)
		body = append(body, make([]byte, klen+vlen)...)
		if _, err := io.ReadFull(r, body[framing:]); err != nil {
			return m
		}
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(crc[:]) {
			return m
		}
		m[string(body[framing:framing+int(klen)])] = string(body[framing+int(klen):])
	}
}

// FuzzRecoverLog feeds arbitrary (torn, bit-flipped, adversarial) log
// bytes to LogStore.recover via OpenFile. Recovery must never panic,
// must never error on readable media, and must leave a log whose every
// indexed record is readable and whose contents are exactly the valid
// prefix's — the consistent prefix the failure model promises. Reopening the recovered log must be a fixed point: the same
// records, no further truncation surprises.
func FuzzRecoverLog(f *testing.F) {
	whole := flushedLog(f, 16)
	f.Add(whole)                                      // intact log
	f.Add(whole[:len(whole)-3])                       // torn mid-record
	f.Add(whole[:len(whole)/2+1])                     // torn mid-log
	f.Add([]byte{})                                   // empty file
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x80, 0x80}) // garbage header
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/3] ^= 0x40 // bit flip in an early record
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(path)
		if err != nil {
			t.Fatalf("OpenFile on fuzzed log errored: %v", err)
		}
		first := scanAll(t, s)
		if want := validPrefix(data); !equalMaps(first, want) {
			t.Fatalf("recovered %d records, the valid prefix holds %d: %q vs %q", len(first), len(want), first, want)
		}
		for k, v := range first {
			if got, ok, err := lookup(s, []byte(k)); err != nil || !ok || string(got) != v {
				t.Fatalf("Get(%q) on the recovered log = %q ok=%v err=%v, Scan saw %q", k, got, ok, err, v)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close recovered log: %v", err)
		}

		// Reopen: recovery of a recovered log must be a fixed point.
		s2, err := OpenFile(path)
		if err != nil {
			t.Fatalf("reopen recovered log: %v", err)
		}
		defer s2.Close()
		if second := scanAll(t, s2); !equalMaps(first, second) {
			t.Fatalf("recovery not a fixed point: %q, then %q", first, second)
		}
	})
}

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
