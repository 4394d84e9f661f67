package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// storesUnderTest builds one of each Store implementation for a subtest.
func storesUnderTest(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := OpenFile(filepath.Join(t.TempDir(), "s.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	ms := NewMem()
	t.Cleanup(func() { ms.Close() })
	return map[string]Store{"file": fs, "mem": ms}
}

// putOne writes one record as a one-record batch.
func putOne(s Store, key, val []byte) error {
	return s.PutBatch([]KV{{Key: key, Val: val}})
}

// lookup reads one key as a one-key batch and returns a copy of its value.
func lookup(s Store, key []byte) (val []byte, ok bool, err error) {
	err = s.GetBatch([][]byte{key}, func(_ int, v []byte, found bool) bool {
		val, ok = bytes.Clone(v), found
		return true
	})
	return val, ok, err
}

func TestPutGetOverwrite(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok, err := lookup(s, []byte("missing")); err != nil || ok {
				t.Fatal("missing key reported present")
			}
			if err := putOne(s, []byte("k1"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := lookup(s, []byte("k1"))
			if err != nil || !ok || !bytes.Equal(v, []byte("v1")) {
				t.Fatalf("Get=%q ok=%v err=%v", v, ok, err)
			}
			if err := putOne(s, []byte("k1"), []byte("v2-longer")); err != nil {
				t.Fatal(err)
			}
			v, ok, _ = lookup(s, []byte("k1"))
			if !ok || !bytes.Equal(v, []byte("v2-longer")) {
				t.Fatalf("overwrite Get=%q", v)
			}
			if s.Len() != 1 {
				t.Fatalf("Len=%d, want 1", s.Len())
			}
		})
	}
}

func TestEmptyKeyAndValue(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if err := putOne(s, []byte{}, []byte{}); err != nil {
				t.Fatal(err)
			}
			v, ok, err := lookup(s, []byte{})
			if err != nil || !ok || len(v) != 0 {
				t.Fatalf("empty round trip: %q %v %v", v, ok, err)
			}
		})
	}
}

func TestScanVisitsAllLiveRecords(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			want := map[string]string{}
			for i := 0; i < 100; i++ {
				k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%d", i*i)
				want[k] = v
				if err := putOne(s, []byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
			// Overwrite some: scan must see only latest values.
			for i := 0; i < 10; i++ {
				k := fmt.Sprintf("key-%03d", i)
				want[k] = "new"
				if err := putOne(s, []byte(k), []byte("new")); err != nil {
					t.Fatal(err)
				}
			}
			got := map[string]string{}
			if err := s.Scan(func(k, v []byte) bool {
				got[string(k)] = string(v)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("scan saw %d records, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("scan %s=%q, want %q", k, got[k], v)
				}
			}
		})
	}
}

func TestScanEarlyStop(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				_ = putOne(s, []byte{byte(i)}, []byte{byte(i)})
			}
			n := 0
			_ = s.Scan(func(k, v []byte) bool { n++; return n < 5 })
			if n != 5 {
				t.Fatalf("early stop visited %d", n)
			}
		})
	}
}

func TestSizeBytesGrows(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			before := s.SizeBytes()
			_ = putOne(s, []byte("key"), bytes.Repeat([]byte{1}, 1000))
			if s.SizeBytes() < before+1000 {
				t.Fatalf("SizeBytes=%d did not grow by payload", s.SizeBytes())
			}
		})
	}
}

func TestClosedStoreErrors(t *testing.T) {
	fs, err := OpenFile(filepath.Join(t.TempDir(), "c.log"))
	if err != nil {
		t.Fatal(err)
	}
	_ = fs.Close()
	if err := putOne(fs, []byte("k"), []byte("v")); err == nil {
		t.Fatal("PutBatch on closed store succeeded")
	}
	if _, _, err := lookup(fs, []byte("k")); err == nil {
		t.Fatal("GetBatch on closed store succeeded")
	}
	if err := fs.Close(); err != nil {
		t.Fatal("double Close should be a no-op")
	}
}

func TestManagerFileAndMemory(t *testing.T) {
	for _, root := range []string{"", t.TempDir()} {
		name := "mem"
		if root != "" {
			name = "file"
		}
		t.Run(name, func(t *testing.T) {
			m, err := NewManager(root, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			a, err := m.Open("op-1/full:backward")
			if err != nil {
				t.Fatal(err)
			}
			b, err := m.Open("op-2")
			if err != nil {
				t.Fatal(err)
			}
			again, _ := m.Open("op-1/full:backward")
			if again != a {
				t.Fatal("Open not idempotent")
			}
			_ = putOne(a, []byte("x"), []byte("1"))
			_ = putOne(b, []byte("y"), bytes.Repeat([]byte{2}, 100))
			if got := m.Namespaces(); len(got) != 2 {
				t.Fatalf("Namespaces=%v", got)
			}
			if a.SizeBytes() <= 0 || b.SizeBytes() <= 0 {
				t.Fatal("SizeBytes not accounted")
			}
			if err := m.Drop("op-2"); err != nil {
				t.Fatal(err)
			}
			if got := m.Namespaces(); len(got) != 1 {
				t.Fatalf("after Drop Namespaces=%v", got)
			}
		})
	}
}

// A storage directory belongs to its manager's process: a second manager
// on the same root removes every store file the first left — logs and the
// sidecars earlier builds wrote — and opens each namespace empty.
func TestNewManagerClearsRoot(t *testing.T) {
	root := t.TempDir()
	m, err := NewManager(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.Open("astro/crd")
	_ = putOne(s, []byte("pair-1"), []byte("lineage"))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	stale := []string{sanitize("astro/crd") + ".log", sanitize("never/opened") + ".log",
		sanitize("astro/crd") + ".log.meta", sanitize("astro/crd") + ".log.meta.tmp"}
	for _, name := range stale[1:] {
		if err := os.WriteFile(filepath.Join(root, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m2, err := NewManager(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(root, name)); !os.IsNotExist(err) {
			t.Fatalf("stale %s survived NewManager: %v", name, err)
		}
	}
	s2, err := m2.Open("astro/crd")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 || s2.SizeBytes() != 0 {
		t.Fatalf("reused namespace opens with Len=%d SizeBytes=%d, want an empty store", s2.Len(), s2.SizeBytes())
	}
	if _, ok, err := lookup(s2, []byte("pair-1")); err != nil || ok {
		t.Fatalf("the earlier process's record is visible: ok=%v err=%v", ok, err)
	}
}

// Property: a randomized sequence of one-record batches leaves both
// implementations exactly matching a map reference.
func TestQuickStoreVsReference(t *testing.T) {
	dir := t.TempDir()
	trial := 0
	f := func(ops []struct {
		K uint8
		V []byte
	}) bool {
		trial++
		fs, err := OpenFile(filepath.Join(dir, fmt.Sprintf("q%d.log", trial)))
		if err != nil {
			return false
		}
		defer fs.Close()
		ms := NewMem()
		ref := map[string][]byte{}
		for _, op := range ops {
			k := []byte{op.K % 32}
			if putOne(fs, k, op.V) != nil || putOne(ms, k, op.V) != nil {
				return false
			}
			ref[string(k)] = op.V
		}
		for k, want := range ref {
			for _, s := range []Store{fs, ms} {
				got, ok, err := lookup(s, []byte(k))
				if err != nil || !ok || !bytes.Equal(got, want) {
					return false
				}
			}
		}
		return fs.Len() == len(ref) && ms.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFileStorePut(b *testing.B) {
	s, err := OpenFile(filepath.Join(b.TempDir(), "bench.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte{0xAA}, 64)
	var key [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		if err := putOne(s, key[:], val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFileStoreGet(b *testing.B) {
	s, err := OpenFile(filepath.Join(b.TempDir(), "bench.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte{0xAA}, 64)
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 10000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		_ = putOne(s, keys[i], val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := lookup(s, keys[rng.Intn(len(keys))]); err != nil || !ok {
			b.Fatal("get failed")
		}
	}
}
