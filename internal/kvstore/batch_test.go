package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestPutBatchBasics(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			kvs := make([]KV, 100)
			for i := range kvs {
				kvs[i] = KV{
					Key: []byte(fmt.Sprintf("k%03d", i)),
					Val: []byte(fmt.Sprintf("v%03d-%s", i, string(make([]byte, i%7)))),
				}
			}
			// Pre-existing key gets overwritten by the batch.
			if err := putOne(s, []byte("k000"), []byte("stale")); err != nil {
				t.Fatal(err)
			}
			if err := PutBatch(s, kvs); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 100 {
				t.Fatalf("Len = %d, want 100", s.Len())
			}
			for _, kv := range kvs {
				v, ok, err := lookup(s, kv.Key)
				if err != nil || !ok || !bytes.Equal(v, kv.Val) {
					t.Fatalf("Get(%q) = %q ok=%v err=%v", kv.Key, v, ok, err)
				}
			}
		})
	}
}

// A batch written by a file store's PutBatch must equal the bytes N
// one-record batches would have produced, so size accounting is identical
// either way.
func TestFileStorePutBatchMatchesPuts(t *testing.T) {
	dir := t.TempDir()
	kvs := make([]KV, 50)
	for i := range kvs {
		kvs[i] = KV{Key: []byte(fmt.Sprintf("key-%d", i)), Val: bytes.Repeat([]byte{byte(i)}, i)}
	}

	batched, err := OpenFile(filepath.Join(dir, "batched.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := batched.PutBatch(kvs); err != nil {
		t.Fatal(err)
	}
	if err := batched.Sync(); err != nil {
		t.Fatal(err)
	}
	serial, err := OpenFile(filepath.Join(dir, "serial.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range kvs {
		if err := putOne(serial, kv.Key, kv.Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := serial.Sync(); err != nil {
		t.Fatal(err)
	}
	if batched.SizeBytes() != serial.SizeBytes() {
		t.Fatalf("batched log size %d != serial %d", batched.SizeBytes(), serial.SizeBytes())
	}
	batched.Close()
	serial.Close()

	a, _ := os.ReadFile(filepath.Join(dir, "batched.log"))
	b, _ := os.ReadFile(filepath.Join(dir, "serial.log"))
	if !bytes.Equal(a, b) {
		t.Fatal("batched log bytes differ from serial puts")
	}
}

// A PutBatch of fresh keys grows the index once, to the table size the
// same keys written by one-record batches reach — so batching cannot move
// a store's heap footprint — for batches that stay under the load bound,
// cross it once, or cross it several times.
func TestPutBatchIndexSizeMatchesPuts(t *testing.T) {
	dir := t.TempDir()
	n := 0
	for _, pre := range []int{0, 5, 11, 12, 13, 100, 767, 768, 769} {
		for _, size := range []int{0, 1, 2, 11, 12, 13, 100, 1000, 3000} {
			kvs := make([]KV, pre+size)
			for i := range kvs {
				kvs[i] = KV{Key: []byte(fmt.Sprintf("key-%d", i)), Val: []byte{byte(i)}}
			}
			open := func() *LogStore {
				n++
				s, err := OpenFile(filepath.Join(dir, fmt.Sprintf("%d.log", n)))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				for _, kv := range kvs[:pre] {
					if err := putOne(s, kv.Key, kv.Val); err != nil {
						t.Fatal(err)
					}
				}
				return s
			}
			serial, batched := open(), open()
			for _, kv := range kvs[pre:] {
				if err := putOne(serial, kv.Key, kv.Val); err != nil {
					t.Fatal(err)
				}
			}
			if err := batched.PutBatch(kvs[pre:]); err != nil {
				t.Fatal(err)
			}
			if len(batched.slots) != len(serial.slots) {
				t.Fatalf("%d keys then a batch of %d: index of %d slots, one-record batches reach %d",
					pre, size, len(batched.slots), len(serial.slots))
			}
			for _, kv := range kvs {
				if v, ok, err := lookup(batched, kv.Key); err != nil || !ok || !bytes.Equal(v, kv.Val) {
					t.Fatalf("Get(%q) = %q ok=%v err=%v", kv.Key, v, ok, err)
				}
			}
		}
	}
}
