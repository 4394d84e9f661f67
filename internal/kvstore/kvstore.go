// Package kvstore provides the embedded key-value storage layer underneath
// SubZero's lineage stores.
//
// The paper's prototype keeps region lineage "in a collection of BerkeleyDB
// hashtable instances ... with fsync, logging and concurrency control
// turned off", because lineage is a cache that can always be recomputed by
// re-running operators (§VI-A). This package is the stdlib-only substitute:
//
//   - Store is a minimal hashtable interface (put/get/scan, batched
//     probes and group commits, one atomically committed metadata blob)
//     with explicit size accounting so benchmarks can charge disk
//     overhead.
//   - FileStore is a log-structured, CRC-framed append file read in place:
//     lookups go through a read-only mapping of the log (and the store's
//     own append buffer for records not yet written), and the index is a
//     table of 8-byte offsets that compares against the key bytes in the
//     record, so a probe costs memory accesses — no syscall, no copy, no
//     per-key heap object. It is durable enough to survive a clean process
//     exit, and like the paper's configuration it deliberately trades
//     crash safety for speed: a torn tail is detected and discarded on
//     open.
//   - MemStore is a map-backed implementation used by tests and by
//     benchmarks that isolate CPU cost from I/O.
//   - Manager allocates one Store per operator instance ("operator
//     specific datastores" in Figure 3).
package kvstore

import (
	"fmt"
	"sort"
	"sync"
)

// Store is a single hashtable namespace holding lineage for one operator
// instance and strategy.
type Store interface {
	// Put inserts or overwrites a key.
	Put(key, val []byte) error
	// Get returns the value for a key, with ok=false if absent. The
	// returned slice must not be modified and is only valid until the
	// next store operation.
	Get(key []byte) (val []byte, ok bool, err error)
	// GetBatch resolves several point lookups under a single lock
	// acquisition. fn is called once per key in order, under that lock;
	// the val slice is lent, not given — it may be the store's own memory
	// (FileStore passes the bytes of its mapping), must not be modified,
	// and is only valid for the duration of the call. fn must not call
	// back into the store. Returning false stops the batch early.
	GetBatch(keys [][]byte, fn func(i int, val []byte, ok bool) bool) error
	// PutBatch applies several puts as one group commit — a single lock
	// acquisition and a single pass through the backing medium's write
	// path. Lineage stores commit their record blocks and tiles through
	// this, so N buffered records cost one lock/IO round instead of N.
	//
	// Against concurrent readers the batch is atomic: no Get/Scan
	// observes a prefix of it, because the whole batch applies under the
	// store's lock. Crash atomicity follows the log's usual stance — a
	// torn batch is detected by the CRC framing on reopen and the tail is
	// discarded. The store copies what it keeps: the caller may reuse kvs
	// and every key and value byte once PutBatch returns.
	PutBatch(kvs []KV) error
	// CommitMeta atomically replaces the one metadata blob the store
	// holds beside its record data: a reader either sees the previous
	// blob or the new one, never a torn mix — even across a crash
	// mid-commit (FileStore writes a temp file and renames it into
	// place). Lineage stores commit their pair counter, statistics, and
	// serialized spatial indexes as a single blob through this, so a
	// crash mid-flush cannot leave a store that half-loads.
	CommitMeta(val []byte) error
	// LoadMeta returns the last committed blob, with ok=false when no
	// valid blob exists (never committed, or corrupt on disk — corruption
	// is treated as absence because lineage is a recoverable cache).
	LoadMeta() (val []byte, ok bool, err error)
	// Scan calls fn for every record until fn returns false. Iteration
	// order is unspecified. The slices passed to fn must not be retained.
	Scan(fn func(key, val []byte) bool) error
	// Len returns the number of live keys.
	Len() int
	// SizeBytes returns the storage footprint charged to this store
	// (file size for FileStore, estimated heap bytes for MemStore).
	SizeBytes() int64
	// Sync flushes buffered writes to the backing medium.
	Sync() error
	// Close releases resources; the store must not be used afterwards.
	Close() error
}

// GetBatch resolves keys against s; see Store.GetBatch.
func GetBatch(s Store, keys [][]byte, fn func(i int, val []byte, ok bool) bool) error {
	return s.GetBatch(keys, fn)
}

// KV is one record of a write batch.
type KV struct {
	Key, Val []byte
}

// PutBatch applies a write batch to s; see Store.PutBatch.
func PutBatch(s Store, kvs []KV) error {
	return s.PutBatch(kvs)
}

// MemStore is an in-memory Store backed by a map.
type MemStore struct {
	mu    sync.RWMutex
	data  map[string][]byte
	meta  []byte
	bytes int64
}

// NewMem creates an empty in-memory store.
func NewMem() *MemStore {
	return &MemStore{data: make(map[string][]byte)}
}

// recordOverhead approximates per-record bookkeeping cost so MemStore size
// accounting is comparable with FileStore's on-disk framing.
const recordOverhead = 12

// Put implements Store.
func (m *MemStore) Put(key, val []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.data == nil {
		return ErrClosed
	}
	k := string(key)
	if old, ok := m.data[k]; ok {
		m.bytes -= int64(len(k) + len(old) + recordOverhead)
	}
	cp := make([]byte, len(val))
	copy(cp, val)
	m.data[k] = cp
	m.bytes += int64(len(k) + len(val) + recordOverhead)
	return nil
}

// Get implements Store.
func (m *MemStore) Get(key []byte) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.data == nil {
		return nil, false, ErrClosed
	}
	v, ok := m.data[string(key)]
	return v, ok, nil
}

// PutBatch implements Store: the whole batch applies under one
// write lock, so no concurrent reader observes a partial batch.
func (m *MemStore) PutBatch(kvs []KV) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.data == nil {
		return ErrClosed
	}
	for _, kv := range kvs {
		k := string(kv.Key)
		if old, ok := m.data[k]; ok {
			m.bytes -= int64(len(k) + len(old) + recordOverhead)
		}
		cp := make([]byte, len(kv.Val))
		copy(cp, kv.Val)
		m.data[k] = cp
		m.bytes += int64(len(k) + len(kv.Val) + recordOverhead)
	}
	return nil
}

// CommitMeta implements Store.
func (m *MemStore) CommitMeta(val []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.data == nil {
		return ErrClosed
	}
	m.bytes += int64(len(val)) - int64(len(m.meta))
	m.meta = append(m.meta[:0], val...)
	return nil
}

// LoadMeta implements Store.
func (m *MemStore) LoadMeta() ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.data == nil {
		return nil, false, ErrClosed
	}
	if m.meta == nil {
		return nil, false, nil
	}
	cp := make([]byte, len(m.meta))
	copy(cp, m.meta)
	return cp, true, nil
}

// GetBatch implements Store: all keys are resolved under one read
// lock.
func (m *MemStore) GetBatch(keys [][]byte, fn func(i int, val []byte, ok bool) bool) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.data == nil {
		return ErrClosed
	}
	for i, k := range keys {
		v, ok := m.data[string(k)]
		if !fn(i, v, ok) {
			return nil
		}
	}
	return nil
}

// Scan implements Store. Keys are visited in sorted order for determinism.
func (m *MemStore) Scan(fn func(key, val []byte) bool) error {
	m.mu.RLock()
	if m.data == nil {
		m.mu.RUnlock()
		return ErrClosed
	}
	keys := make([]string, 0, len(m.data))
	for k := range m.data {
		keys = append(keys, k)
	}
	m.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		m.mu.RLock()
		v, ok := m.data[k]
		m.mu.RUnlock()
		if !ok {
			continue
		}
		if !fn([]byte(k), v) {
			return nil
		}
	}
	return nil
}

// Len implements Store.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data)
}

// SizeBytes implements Store.
func (m *MemStore) SizeBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// Sync implements Store (a no-op for memory).
func (m *MemStore) Sync() error { return nil }

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = nil
	return nil
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = fmt.Errorf("kvstore: store is closed")
