// Package kvstore provides the embedded key-value storage layer underneath
// SubZero's lineage stores.
//
// The paper's prototype keeps region lineage "in a collection of BerkeleyDB
// hashtable instances ... with fsync, logging and concurrency control
// turned off", because lineage is a cache that can always be recomputed by
// re-running operators (§VI-A). This package is the stdlib-only substitute:
//
//   - Store is a minimal hashtable interface (batched probes and group
//     commits, a log-order scan) with explicit size accounting so
//     benchmarks can charge disk overhead. It holds records only: a
//     lineage store's metadata lives in memory with the store, which
//     lives as long as its process.
//   - LogStore is its one implementation: a log-structured append log
//     read in place. Lookups go through an index that is a table of 8-byte
//     offsets and compares against the key bytes in the record, so a probe
//     costs memory accesses — no syscall, no copy, no per-key heap object.
//     OpenFile keeps the log in a file, read through a read-only mapping
//     (and the store's own append buffer for records not yet written).
//     Every log is created empty and read back only by the store that
//     wrote it: like the paper's configuration, nothing is fsynced,
//     checksummed or recovered, because a store lives as long as its
//     process. NewMem keeps the same log in one in-memory slice. The two
//     differ only in where appended bytes live: framing, index, overwrite
//     and scan semantics and SizeBytes are shared.
//   - Manager allocates one Store per operator instance ("operator
//     specific datastores" in Figure 3) and hands each store the obs
//     counters it counts its operations into.
//
// Failpoints: kvstore/putbatch and kvstore/flush fire on both backings;
// kvstore/file/write names the log file and fires on file-backed stores
// only.
package kvstore

import "fmt"

// Store is a single hashtable namespace holding lineage for one operator
// instance and strategy.
type Store interface {
	// GetBatch resolves several point lookups under a single lock
	// acquisition. fn is called once per key in order, under that lock;
	// the val slice is lent, not given — it is the store's own memory (the
	// bytes of the log in place), must not be modified, and is only valid
	// for the duration of the call. fn must not call back into the store.
	// Returning false stops the batch early.
	GetBatch(keys [][]byte, fn func(i int, val []byte, ok bool) bool) error
	// PutBatch inserts or overwrites several keys as one group commit — a
	// single lock acquisition and a single pass through the backing
	// medium's write path. Lineage stores commit their record blocks and
	// tiles through this, so N buffered records cost one lock/IO round
	// instead of N.
	//
	// Against concurrent readers the batch is atomic: no GetBatch or Scan
	// observes a prefix of it, because the whole batch applies under the
	// store's lock. A crash loses the store with its process, so there is
	// no crash atomicity to keep. The store copies what it keeps: the
	// caller may reuse kvs and every key and value byte once PutBatch
	// returns.
	PutBatch(kvs []KV) error
	// Scan calls fn for every live key until fn returns false, at its
	// latest value, in the order those values were written (log order).
	// The slices passed to fn must not be retained.
	Scan(fn func(key, val []byte) bool) error
	// Len returns the number of live keys.
	Len() int
	// SizeBytes returns the storage footprint charged to this store: every
	// log byte appended, overwritten records included.
	SizeBytes() int64
	// Sync hands buffered writes to the backing medium.
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

// ErrClosed is returned by operations on a closed store.
var ErrClosed = fmt.Errorf("kvstore: store is closed")
