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

// A batch written by a file store's PutBatch must survive reopen, and the
// batch must equal the bytes N one-record batches would have produced (so
// recovery and size accounting are identical either way).
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

	re, err := OpenFile(filepath.Join(dir, "batched.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, kv := range kvs {
		v, ok, err := lookup(re, kv.Key)
		if err != nil || !ok || !bytes.Equal(v, kv.Val) {
			t.Fatalf("reopened Get(%q) = %q ok=%v err=%v", kv.Key, v, ok, err)
		}
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

func TestMetaCommitRoundTrip(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok, err := s.LoadMeta(); err != nil || ok {
				t.Fatalf("fresh store reports meta ok=%v err=%v", ok, err)
			}
			if err := s.CommitMeta([]byte("generation-1")); err != nil {
				t.Fatal(err)
			}
			if err := s.CommitMeta([]byte("generation-2")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := s.LoadMeta()
			if err != nil || !ok || !bytes.Equal(v, []byte("generation-2")) {
				t.Fatalf("LoadMeta = %q ok=%v err=%v", v, ok, err)
			}
		})
	}
}

// A file store's meta survives reopen and a corrupted sidecar — truncated,
// bit-flipped, or a stray temp file from a crashed commit — reads as
// absent rather than half-loading.
func TestFileStoreMetaCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.log")

	open := func() *LogStore {
		t.Helper()
		fs, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}

	fs := open()
	if err := putOne(fs, []byte("data"), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := fs.CommitMeta([]byte("good-meta")); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Clean reopen: meta present.
	fs = open()
	if v, ok, err := fs.LoadMeta(); err != nil || !ok || !bytes.Equal(v, []byte("good-meta")) {
		t.Fatalf("reopen LoadMeta = %q ok=%v err=%v", v, ok, err)
	}
	fs.Close()

	corruptions := map[string]func(t *testing.T){
		"bit-flip": func(t *testing.T) {
			buf, err := os.ReadFile(path + ".meta")
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)-1] ^= 0xFF
			if err := os.WriteFile(path+".meta", buf, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncate": func(t *testing.T) {
			if err := os.Truncate(path+".meta", 3); err != nil {
				t.Fatal(err)
			}
		},
		"garbage": func(t *testing.T) {
			if err := os.WriteFile(path+".meta", []byte("not a meta file"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			corrupt(t)
			fs := open()
			defer fs.Close()
			if _, ok, err := fs.LoadMeta(); err != nil || ok {
				t.Fatalf("corrupt meta should read as absent, got ok=%v err=%v", ok, err)
			}
			// Data log is unaffected, and a fresh commit heals the sidecar.
			if v, ok, _ := lookup(fs, []byte("data")); !ok || !bytes.Equal(v, []byte("payload")) {
				t.Fatal("data log damaged by meta corruption handling")
			}
			if err := fs.CommitMeta([]byte("healed")); err != nil {
				t.Fatal(err)
			}
			if v, ok, err := fs.LoadMeta(); err != nil || !ok || !bytes.Equal(v, []byte("healed")) {
				t.Fatalf("healed LoadMeta = %q ok=%v err=%v", v, ok, err)
			}
		})
	}

	// A crash between temp write and rename leaves only the temp file;
	// the committed blob must still be the previous generation.
	t.Run("stray-temp", func(t *testing.T) {
		fs := open()
		if err := fs.CommitMeta([]byte("committed")); err != nil {
			t.Fatal(err)
		}
		fs.Close()
		if err := os.WriteFile(path+".meta.tmp", []byte("torn write"), 0o644); err != nil {
			t.Fatal(err)
		}
		fs = open()
		defer fs.Close()
		if v, ok, err := fs.LoadMeta(); err != nil || !ok || !bytes.Equal(v, []byte("committed")) {
			t.Fatalf("stray temp disturbed committed meta: %q ok=%v err=%v", v, ok, err)
		}
	})
}

// Dropping a namespace removes the meta sidecar along with the log.
func TestManagerDropRemovesMetaSidecar(t *testing.T) {
	root := t.TempDir()
	m, err := NewManager(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.Open("ns")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.(*LogStore).CommitMeta([]byte("m")); err != nil {
		t.Fatal(err)
	}
	if err := m.Drop("ns"); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("drop left files behind: %v", left)
	}
}
