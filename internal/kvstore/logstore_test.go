package kvstore

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// goldenLog is the log a file store writes for the puts in goldenPuts (an
// overwrite, an empty key, a two-byte vlen): each record is its key length,
// its value length, its key and its value. The benchmark's storage metrics
// count these bytes, so a change to them must be deliberate.
const goldenLog = "0503616c7068616f6e65000004820162657461" +
	"abababababababababababababababababababababababababababababababababababababababab" +
	"abababababababababababababababababababababababababababababababababababababababab" +
	"abababababababababababababababababababababababababababababababababababababababab" +
	"abababababababababab0503616c70686174776f050067616d6d61"

func goldenPuts(t *testing.T, s *LogStore) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(putOne(s, []byte("alpha"), []byte("one")))
	must(putOne(s, []byte{}, []byte{}))
	must(s.PutBatch([]KV{
		{Key: []byte("beta"), Val: bytes.Repeat([]byte{0xAB}, 130)},
		{Key: []byte("alpha"), Val: []byte("two")},
	}))
	must(putOne(s, []byte("gamma"), nil))
}

func TestLogFormatUnchanged(t *testing.T) {
	want, err := hex.DecodeString(goldenLog)
	if err != nil {
		t.Fatal(err)
	}
	// OpenFile creates the log empty, whatever a file there held.
	path := filepath.Join(t.TempDir(), "fresh.log")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xEE}, 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	goldenPuts(t, s)
	if s.Len() != 4 || s.SizeBytes() != int64(len(want)) {
		t.Fatalf("Len=%d SizeBytes=%d, want 4 and %d", s.Len(), s.SizeBytes(), len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log bytes differ from the pinned layout:\n got %x\nwant %x", got, want)
	}
}

// storeModel is what a file store must look like from outside: the latest
// value of every key, the order in which those values were last written
// (Scan's order), and every byte ever appended (SizeBytes charges garbage).
type storeModel struct {
	vals    map[string][]byte
	written map[string]int
	seq     int
	logSize int64
}

func (m *storeModel) put(key, val []byte) {
	m.vals[string(key)] = append([]byte{}, val...)
	m.seq++
	m.written[string(key)] = m.seq
	m.logSize += int64(uvarintLen(uint64(len(key))) + uvarintLen(uint64(len(val))) + len(key) + len(val))
}

func (m *storeModel) check(t *testing.T, s *LogStore, step int) {
	t.Helper()
	if s.Len() != len(m.vals) || s.SizeBytes() != m.logSize {
		t.Fatalf("step %d: Len=%d SizeBytes=%d, model has %d keys in %d bytes",
			step, s.Len(), s.SizeBytes(), len(m.vals), m.logSize)
	}
	seen, last := 0, 0
	if err := s.Scan(func(k, v []byte) bool {
		want, ok := m.vals[string(k)]
		if !ok || !bytes.Equal(v, want) {
			t.Fatalf("step %d: Scan visited %q=%.20q, model has %.20q (present %v)", step, k, v, want, ok)
		}
		if w := m.written[string(k)]; w <= last {
			t.Fatalf("step %d: Scan visited %q out of log order", step, k)
		} else {
			last = w
		}
		seen++
		return true
	}); err != nil {
		t.Fatalf("step %d: Scan: %v", step, err)
	}
	if seen != len(m.vals) {
		t.Fatalf("step %d: Scan visited %d records, model has %d", step, seen, len(m.vals))
	}
}

// TestFileStoreModel drives a seeded mix of every operation against a map.
// Nothing is flushed unless the mix says so, so most reads are of records
// still in the append buffer; values up to 300 KB force buffer drains and
// remaps; batches of up to 64 fresh keys grow the table mid-batch. The
// narrowed tag masks make every key in a probe run collide on slot and tag,
// so lookups and overwrites must tell keys apart by the record's own bytes.
func TestFileStoreModel(t *testing.T) {
	for _, tagMask := range []uint64{tagAll, 1, 0} {
		t.Run(fmt.Sprintf("tagmask=%#x", tagMask), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tagMask) + 42))
			path := filepath.Join(t.TempDir(), "model.log")
			s, err := openFile(path, tagMask)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			m := &storeModel{vals: map[string][]byte{}, written: map[string]int{}}

			key := func() []byte { return []byte(fmt.Sprintf("k%03d", rng.Intn(700))) }
			val := func() []byte {
				n := rng.Intn(200)
				switch r := rng.Intn(400); {
				case r == 0:
					n = 300 << 10
				case r < 10:
					n = 2000 + rng.Intn(4000)
				}
				v := make([]byte, n)
				rng.Read(v)
				return v
			}
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(100); {
				case op < 40:
					k, v := key(), val()
					if err := putOne(s, k, v); err != nil {
						t.Fatal(err)
					}
					m.put(k, v)
				case op < 55:
					kvs := make([]KV, rng.Intn(64))
					for i := range kvs {
						kvs[i] = KV{Key: key(), Val: val()}
					}
					if err := s.PutBatch(kvs); err != nil {
						t.Fatal(err)
					}
					for _, kv := range kvs {
						m.put(kv.Key, kv.Val)
					}
				case op < 75:
					k := key()
					got, ok, err := lookup(s, k)
					want, present := m.vals[string(k)]
					if err != nil || ok != present || !bytes.Equal(got, want) {
						t.Fatalf("step %d: Get(%q)=%.20q ok=%v err=%v, model %.20q present=%v", step, k, got, ok, err, want, present)
					}
				case op < 90:
					keys := make([][]byte, rng.Intn(40))
					for i := range keys {
						keys[i] = key()
					}
					calls := 0
					if err := s.GetBatch(keys, func(i int, got []byte, ok bool) bool {
						want, present := m.vals[string(keys[i])]
						if i != calls || ok != present || !bytes.Equal(got, want) {
							t.Fatalf("step %d: GetBatch[%d](%q)=%.20q ok=%v, model %.20q present=%v", step, i, keys[i], got, ok, want, present)
						}
						calls++
						return true
					}); err != nil || calls != len(keys) {
						t.Fatalf("step %d: GetBatch made %d of %d calls, err=%v", step, calls, len(keys), err)
					}
				case op < 94:
					if err := s.Sync(); err != nil {
						t.Fatal(err)
					}
				default:
					m.check(t, s, step)
				}
			}
			m.check(t, s, -1)
			if len(s.data) <= minMapBytes || len(s.slots) <= 16 {
				t.Fatalf("mix never remapped (%d bytes mapped) or never grew the table (%d slots)", len(s.data), len(s.slots))
			}
		})
	}
}

// TestFileStoreReadersDuringWrites: readers share the lock, so they run
// beside each other and between the writer's batches, while the writer
// appends, drains, remaps and grows the table. Every value read must be one
// that was written for its key. Run with -race.
func TestFileStoreReadersDuringWrites(t *testing.T) {
	s, err := OpenFile(filepath.Join(t.TempDir(), "rw.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const (
		nKeys   = 6000
		readers = 4
	)
	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	// A value names its key, so a reader can tell whose it is; generations
	// differ in length, which moves every later record.
	valOf := func(i, gen int) []byte {
		return append(keyOf(i), bytes.Repeat([]byte{'#', byte('0' + gen)}, 300+200*gen)...)
	}
	var published atomic.Int64 // keys [0, published) have been written at least once
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			keys := make([][]byte, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := int(published.Load())
				if n == 0 {
					continue
				}
				for i := range keys {
					keys[i] = keyOf(rng.Intn(n))
				}
				if err := s.GetBatch(keys, func(i int, val []byte, ok bool) bool {
					if !ok || !bytes.HasPrefix(val, keys[i]) || (len(val)-len(keys[i]))%200 != 0 {
						t.Errorf("GetBatch(%q) = %.24q (%d bytes) ok=%v: not a value written for that key", keys[i], val, len(val), ok)
						return false
					}
					return true
				}); err != nil {
					t.Errorf("GetBatch: %v", err)
					return
				}
			}
		}(int64(r))
	}
	startMap, startSlots := len(s.data), len(s.slots)
	remaps, mapped := 0, len(s.data)
	countRemap := func() {
		if len(s.data) != mapped {
			remaps, mapped = remaps+1, len(s.data)
		}
	}
	for base := 0; base < nKeys; base += 100 {
		kvs := make([]KV, 0, 120)
		for i := base; i < base+100; i++ {
			kvs = append(kvs, KV{Key: keyOf(i), Val: valOf(i, 0)})
		}
		for j := 0; j < 20 && base > 0; j++ { // overwrite some published keys
			i := (base*7 + j*13) % base
			kvs = append(kvs, KV{Key: keyOf(i), Val: valOf(i, 1+j%3)})
		}
		if err := s.PutBatch(kvs); err != nil {
			t.Fatal(err)
		}
		published.Store(int64(base + 100))
		if base%500 == 0 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		countRemap()
	}
	close(stop)
	wg.Wait()
	if remaps < 2 || len(s.slots) <= startSlots {
		t.Fatalf("writer forced %d remaps (map %d -> %d bytes) and table %d -> %d slots; want several remaps and a growth",
			remaps, startMap, len(s.data), startSlots, len(s.slots))
	}
}

// TestFileStoreMappingFault: a page of the mapping that cannot be loaded
// (here: the log is truncated from outside) must come back as an error
// from the read that touched it, not kill the process.
func TestFileStoreMappingFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fault.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("victim")
	if err := putOne(s, key, bytes.Repeat([]byte{7}, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := lookup(s, key); err != nil || !ok {
		t.Fatalf("lookup before truncation: ok=%v err=%v", ok, err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	wantErr := func(op string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s over a truncated log returned no error", op)
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "offset") {
			t.Fatalf("%s error does not name the store and the offset: %v", op, err)
		}
	}
	wantErr("GetBatch", s.GetBatch([][]byte{key}, func(int, []byte, bool) bool { return true }))
	wantErr("Scan", s.Scan(func(_, _ []byte) bool { return true }))
	if err := s.Close(); err != nil {
		t.Fatalf("Close after a mapping fault: %v", err)
	}
}

// A panic that is not a fault on the mapping must pass through the read
// paths' fault handler untouched.
func TestFileStoreCallbackPanicPropagates(t *testing.T) {
	s, err := OpenFile(filepath.Join(t.TempDir(), "p.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := putOne(s, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != "callback bug" {
			t.Fatalf("recovered %v, want the callback's own panic", r)
		}
		// The lock was released on the way out.
		if _, _, err := lookup(s, []byte("k")); err != nil {
			t.Fatal(err)
		}
	}()
	_ = s.GetBatch([][]byte{[]byte("k")}, func(int, []byte, bool) bool { panic("callback bug") })
	t.Fatal("GetBatch swallowed the callback's panic")
}

func TestFileStoreAllocs(t *testing.T) {
	s, err := OpenFile(filepath.Join(t.TempDir(), "alloc.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const batch, runs = 256, 20
	// Keys for the seed batch, the warm-up run and every measured run.
	kvs := make([]KV, batch*(runs+2))
	for i := range kvs {
		kvs[i] = KV{Key: []byte(fmt.Sprintf("key-%06d", i)), Val: bytes.Repeat([]byte{byte(i)}, 64)}
	}
	if err := s.PutBatch(kvs[:batch]); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, batch)
	for i := range keys {
		keys[i] = kvs[i].Key
	}

	hits := 0
	onVal := func(_ int, _ []byte, ok bool) bool {
		if ok {
			hits++
		}
		return true
	}
	for _, state := range []string{"buffered", "mapped"} {
		if state == "mapped" {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		hits = 0
		if n := testing.AllocsPerRun(runs, func() {
			if err := s.GetBatch(keys, onVal); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("GetBatch of %d %s keys allocates %v times, want 0", batch, state, n)
		}
		if hits != batch*(runs+1) {
			t.Fatalf("GetBatch found %d of %d %s keys", hits, batch*(runs+1), state)
		}
	}

	records := 0
	onRec := func(_, _ []byte) bool { records++; return true }
	if n := testing.AllocsPerRun(runs, func() {
		if err := s.Scan(onRec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Scan of %d records allocates %v times, want 0", batch, n)
	}
	if records != batch*(runs+1) {
		t.Fatalf("Scan visited %d records, want %d", records, batch*(runs+1))
	}

	// Fresh keys: the slot table doubles and the append buffer regrows now
	// and then, but nothing is allocated per key.
	next := batch
	if n := testing.AllocsPerRun(runs, func() {
		if err := s.PutBatch(kvs[next : next+batch]); err != nil {
			t.Fatal(err)
		}
		next += batch
	}); n > 2 {
		t.Errorf("PutBatch of %d fresh keys allocates %v times per batch, want at most amortised growth", batch, n)
	}
	if s.Len() != next {
		t.Fatalf("Len=%d after the batches, want %d", s.Len(), next)
	}
}

// BenchmarkFileStoreGetBatch probes 256 random keys of 200 000 per
// iteration, from every P at once: run it with -cpu 1,2 to see whether
// readers still exclude each other.
func BenchmarkFileStoreGetBatch(b *testing.B) {
	s, err := OpenFile(filepath.Join(b.TempDir(), "bench.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n = 200000
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{Key: []byte(fmt.Sprintf("key-%07d", i)), Val: bytes.Repeat([]byte{0xAA}, 64)}
	}
	if err := s.PutBatch(kvs); err != nil {
		b.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		keys := make([][]byte, 256)
		read := 0
		fn := func(_ int, val []byte, ok bool) bool {
			if ok {
				read += len(val)
			}
			return true
		}
		for pb.Next() {
			for j := range keys {
				keys[j] = kvs[rng.Intn(n)].Key
			}
			read = 0
			if err := s.GetBatch(keys, fn); err != nil || read != len(keys)*64 {
				b.Errorf("GetBatch read %d bytes, err=%v", read, err)
				return
			}
		}
	})
}
