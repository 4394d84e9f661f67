package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"os"
	"runtime/debug"
	"sync"
	"time"
	"unsafe"

	"subzero/internal/fault"
	"subzero/internal/obs"
)

// Failpoints covering the append/flush path of the log. The crash-point
// matrix test iterates every "kvstore/"-prefixed registered point; a new
// write site MUST register one (see CONTRIBUTING). The wrapped file layer
// adds kvstore/file/write (torn-write capable).
var (
	fpPutBatch = fault.Register("kvstore/putbatch")
	fpFlush    = fault.Register("kvstore/flush")
	// Registered here as well as by WrapFile (registration is
	// idempotent) so Registered() inventories the file-layer point
	// before the first store opens — the crash matrix enumerates it
	// at test start.
	_ = fault.Register("kvstore/file/write")
)

// LogStore is a log-structured Store whose reads never leave user space.
// Records are appended to one log. A file-backed store (OpenFile) keeps the
// log in a file: the bytes the kernel has accepted are read through a
// read-only shared mapping of that file, and the bytes not yet written sit
// in the store's own append buffer, which reads consult directly — a read
// never forces a flush, makes a syscall, or copies a value it only lends to
// a callback. A memory store (NewMem) has no file: its append buffer is the
// whole log and is never drained.
//
// The index is an open-addressing table of 8-byte slots, each the offset
// of a key's latest record plus a few bits of the key's hash. It holds no
// key: a probe whose tag matches compares against the key bytes of the
// record itself, which sit next to the value the caller is about to read.
// Overwritten values leave garbage in the log; lineage stores write each
// key once, so compaction is unnecessary and is deliberately omitted.
//
// Record layout:
//
//	klen uvarint | vlen uvarint | key | val
//
// A log is created empty and read back only by the store that wrote it,
// so a record carries no checksum: lineage is a recoverable cache, and a
// store lives as long as its process.
//
// Locking: reads hold mu shared, so they run in parallel; appends, the
// flush-time remap and Close hold it exclusively. Every slice of the
// mapping or of the append buffer — including the ones lent to GetBatch
// and Scan callbacks — is dead once the lock it was taken under is
// released, because the next writer may remap or regrow the memory
// behind it.
type LogStore struct {
	mu   sync.RWMutex
	f    fault.File // the log file, nil for a memory store; appends go through its fault-injection layer
	fd   *os.File   // the same file, for mapping
	path string     // the log file's path, or "memory"

	// data maps the log from offset 0 once a flush has written to it (nil
	// before). It is longer than the file (the length grows geometrically
	// so that most flushes need no remap); only data[:tailOff] is ever
	// read, and the kernel has accepted all of it.
	data []byte
	// tail buffers the records at [tailOff, tailOff+len(tail)). It always
	// starts on a record boundary: a flush either hands all of it to the
	// kernel and advances tailOff past it, or leaves it whole and remembers
	// in written how many of its bytes the file already holds. A memory
	// store's tail starts at offset 0 and holds the whole log.
	tail    []byte
	tailOff int64
	written int

	slots   []uint64 // see slot; len is zero or a power of two
	live    int      // occupied slots = live keys
	seed    maphash.Seed
	tagMask uint64 // tagAll; tests narrow it to force tag collisions

	closed bool

	// obs counts the store's operations; nil counts nothing. The Manager
	// sets it before handing the store out.
	obs *obs.KVObs
}

// A slot is zero when empty, else (record offset + 1) << tagBits | tag,
// where tag is the top tagBits of the key's hash. The tag spares nearly
// every probe of a neighbouring key the trip to that key's record.
const (
	tagBits     = 16
	tagAll      = 1<<tagBits - 1
	maxLogBytes = 1<<(64-tagBits) - 1
)

const (
	maxKeyLen     = 1 << 20
	maxValLen     = 1 << 28
	writeBufBytes = 1 << 18
	minMapBytes   = 1 << 20
)

// NewMem creates an empty store whose log is kept in memory.
func NewMem() *LogStore {
	return &LogStore{path: "memory", seed: maphash.MakeSeed(), tagMask: tagAll}
}

// OpenFile creates an empty file-backed LogStore at path, truncating any
// file already there.
func OpenFile(path string) (*LogStore, error) {
	return openFile(path, tagAll)
}

func openFile(path string, tagMask uint64) (*LogStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open %s: %w", path, err)
	}
	return &LogStore{
		// The fault wrapper sits below the append buffer, so an injected
		// torn write leaves a partial frame at the file tail.
		f:       fault.WrapFile("kvstore/file", f),
		fd:      f,
		path:    path,
		seed:    maphash.MakeSeed(),
		tagMask: tagMask,
	}, nil
}

// splitRecord parses the record at the head of b and returns its key, its
// value and the bytes it occupies. ok is false when b ends inside the
// record or a length is out of range. The slices are capped, so an append
// through one cannot reach the next record.
func splitRecord(b []byte) (key, val []byte, size int, ok bool) {
	klen, n1 := binary.Uvarint(b)
	if n1 <= 0 || klen > maxKeyLen {
		return nil, nil, 0, false
	}
	vlen, n2 := binary.Uvarint(b[n1:])
	if n2 <= 0 || vlen > maxValLen {
		return nil, nil, 0, false
	}
	k := n1 + n2
	v := k + int(klen)
	size = v + int(vlen)
	if size > len(b) {
		return nil, nil, 0, false
	}
	return b[k:v:v], b[v:size:size], size, true
}

// end returns the offset one past the last appended record.
func (s *LogStore) end() int64 { return s.tailOff + int64(len(s.tail)) }

// record returns the key, the value and the size of the record at off,
// which the index or a log walk vouches for. The slices alias the mapping
// or the append buffer.
func (s *LogStore) record(off int64) (key, val []byte, size int, err error) {
	var b []byte
	if off < s.tailOff {
		b = s.data[off:s.tailOff]
	} else {
		b = s.tail[off-s.tailOff:]
	}
	key, val, size, ok := splitRecord(b)
	if !ok {
		// Only bytes changed behind the store's back get here: append
		// framed this record.
		return nil, nil, 0, fmt.Errorf("kvstore: %s: corrupt record at offset %d", s.path, off)
	}
	return key, val, size, nil
}

// catchFault is deferred around every path that reads the mapping, with
// the result of debug.SetPanicOnFault(true) as prev. A page of a mapping
// can fail to load — the file was truncated from outside, the device
// returned an error — and the kernel reports that as a fault on the
// address. The runtime would abort the process; this turns it into an
// error naming the store and the offset. Any other panic continues.
func (s *LogStore) catchFault(prev bool, err *error) {
	debug.SetPanicOnFault(prev)
	r := recover()
	if r == nil {
		return
	}
	if fe, ok := r.(interface {
		error
		Addr() uintptr
	}); ok && len(s.data) > 0 {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(s.data)))
		if a := fe.Addr(); a >= base && a-base < uintptr(len(s.data)) {
			*err = fmt.Errorf("kvstore: %s: fault reading the mapped log at offset %d (truncated or unreadable underneath the store): %w",
				s.path, a-base, fe)
			return
		}
	}
	panic(r)
}

// remap replaces the mapping with one that covers at least need bytes.
// Callers hold mu exclusively, so no slice of the old mapping is live.
func (s *LogStore) remap(need int64) error {
	n := max(2*need, minMapBytes)
	if int64(int(n)) != n {
		return fmt.Errorf("kvstore: map %s: %d bytes do not fit the address space", s.path, n)
	}
	data, err := mmap(s.fd, int(n))
	if err != nil {
		return fmt.Errorf("kvstore: map %s: %w", s.path, err)
	}
	old := s.data
	s.data = data
	if err := munmap(old); err != nil {
		return fmt.Errorf("kvstore: unmap %s: %w", s.path, err)
	}
	return nil
}

// hashKey returns the key's hash and the tag a slot stores for it.
func (s *LogStore) hashKey(key []byte) (h, tag uint64) {
	h = maphash.Bytes(s.seed, key)
	return h, h >> (64 - tagBits) & s.tagMask
}

// probe walks key's probe sequence and returns the slot holding it, with
// its record's offset and value, or the empty slot where it belongs, with
// off = -1. The table must have an empty slot.
func (s *LogStore) probe(key []byte, h, tag uint64) (slot uint64, off int64, val []byte, err error) {
	mask := uint64(len(s.slots) - 1)
	for slot = h & mask; ; slot = (slot + 1) & mask {
		sl := s.slots[slot]
		if sl == 0 {
			return slot, -1, nil, nil
		}
		if sl&tagAll != tag {
			continue
		}
		off = int64(sl>>tagBits) - 1
		k, v, _, err := s.record(off)
		if err != nil {
			return 0, -1, nil, err
		}
		if bytes.Equal(k, key) {
			return slot, off, v, nil
		}
	}
}

// find returns the offset and the value of key's latest record, or
// off = -1 when the key is absent.
func (s *LogStore) find(key []byte) (off int64, val []byte, err error) {
	if len(s.slots) == 0 {
		return -1, nil, nil
	}
	h, tag := s.hashKey(key)
	_, off, val, err = s.probe(key, h, tag)
	return off, val, err
}

// indexPut points key at the record at off, which must already be
// readable through record. more counts the keys still to come in the same
// batch: when the table must grow, it grows once for all of them, to the
// size the same keys inserted one at a time would reach if all were new.
func (s *LogStore) indexPut(key []byte, off int64, more int) error {
	if (s.live+1)*4 > len(s.slots)*3 {
		if err := s.growIndex(s.live + 1 + more); err != nil {
			return err
		}
	}
	h, tag := s.hashKey(key)
	slot, old, _, err := s.probe(key, h, tag)
	if err != nil {
		return err
	}
	if old < 0 {
		s.live++
	}
	s.slots[slot] = uint64(off+1)<<tagBits | tag
	return nil
}

// growIndex doubles the table until it holds need keys under the 3/4 load
// bound. A slot keeps too few hash bits to be re-placed by itself, so each
// key is hashed again from its record.
func (s *LogStore) growIndex(need int) error {
	n := max(16, 2*len(s.slots))
	for need*4 > n*3 {
		n *= 2
	}
	grown := make([]uint64, n)
	mask := uint64(len(grown) - 1)
	for _, sl := range s.slots {
		if sl == 0 {
			continue
		}
		key, _, _, err := s.record(int64(sl>>tagBits) - 1)
		if err != nil {
			return err
		}
		h, _ := s.hashKey(key)
		i := h & mask
		for grown[i] != 0 {
			i = (i + 1) & mask
		}
		grown[i] = sl
	}
	s.slots = grown
	return nil
}

// appendRecord frames key/val at the end of the append buffer, draining a
// file store's buffer first when the record would overfill it, and indexes
// it; more is passed on to indexPut.
func (s *LogStore) appendRecord(key, val []byte, more int) error {
	need := uvarintLen(uint64(len(key))) + uvarintLen(uint64(len(val))) + len(key) + len(val)
	if s.f != nil && len(s.tail) > 0 && len(s.tail)+need > writeBufBytes {
		if err := s.flushLocked(); err != nil {
			return err
		}
	}
	off := s.end()
	if off+int64(need) > maxLogBytes {
		return fmt.Errorf("kvstore: %s: log is full (%d bytes)", s.path, off)
	}
	start := len(s.tail)
	s.tail = binary.AppendUvarint(s.tail, uint64(len(key)))
	s.tail = binary.AppendUvarint(s.tail, uint64(len(val)))
	s.tail = append(s.tail, key...)
	s.tail = append(s.tail, val...)
	if err := s.indexPut(key, off, more); err != nil {
		s.tail = s.tail[:start]
		return err
	}
	return nil
}

// PutBatch implements Store: the whole batch is framed and appended
// under one lock acquisition and one pass through the append buffer — the
// group commit lineage stores rely on — and the index grows at
// most once, with room for the rest of the batch.
func (s *LogStore) PutBatch(kvs []KV) error {
	if s.obs == nil {
		return s.putBatch(kvs)
	}
	start := time.Now()
	err := s.putBatch(kvs)
	s.obs.PutBatchLatency.ObserveSince(start)
	s.obs.PutBatches.Inc()
	s.obs.KeysWritten.Add(int64(len(kvs)))
	if err == nil {
		var n int64
		for _, kv := range kvs {
			n += int64(len(kv.Val))
		}
		s.obs.BytesWritten.Add(n)
	}
	return err
}

func (s *LogStore) putBatch(kvs []KV) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := fault.Inject(fpPutBatch); err != nil {
		return err
	}
	// Validate the whole batch before writing any of it, so an oversized
	// record cannot leave a durably applied prefix behind an error.
	for _, kv := range kvs {
		if len(kv.Key) > maxKeyLen || len(kv.Val) > maxValLen {
			return fmt.Errorf("kvstore: record too large (key %d, val %d)", len(kv.Key), len(kv.Val))
		}
	}
	defer s.catchFault(debug.SetPanicOnFault(true), &err)
	for i, kv := range kvs {
		if err := s.appendRecord(kv.Key, kv.Val, len(kvs)-1-i); err != nil {
			return err
		}
	}
	return nil
}

// GetBatch implements Store: one shared lock acquisition serves the
// whole batch. The val passed to fn is the record's bytes in place, in the
// mapping or the append buffer; it is only valid during the call. The
// latency counted includes fn's work.
func (s *LogStore) GetBatch(keys [][]byte, fn func(i int, val []byte, ok bool) bool) error {
	if s.obs == nil {
		_, err := s.getBatch(keys, fn)
		return err
	}
	start := time.Now()
	read, err := s.getBatch(keys, fn)
	s.obs.GetBatchLatency.ObserveSince(start)
	s.obs.GetBatches.Inc()
	s.obs.KeysRead.Add(int64(len(keys)))
	s.obs.BytesRead.Add(read)
	return err
}

// getBatch is GetBatch; it returns the value bytes it lent fn.
func (s *LogStore) getBatch(keys [][]byte, fn func(i int, val []byte, ok bool) bool) (read int64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	defer s.catchFault(debug.SetPanicOnFault(true), &err)
	for i, k := range keys {
		off, val, err := s.find(k)
		if err != nil {
			return read, err
		}
		read += int64(len(val))
		if !fn(i, val, off >= 0) {
			break
		}
	}
	return read, nil
}

// Scan implements Store. The log is walked in order and a record is
// visited when the index still points at it, so each live key is seen
// once, at its latest value, in log order. The slices passed to fn are
// the record's bytes in place.
func (s *LogStore) Scan(fn func(key, val []byte) bool) error {
	visited, read, err := s.scan(fn)
	if s.obs != nil {
		s.obs.Scans.Inc()
		s.obs.KeysRead.Add(visited)
		s.obs.BytesRead.Add(read)
	}
	return err
}

// scan is Scan; it returns how many records it passed fn and their value
// bytes.
func (s *LogStore) scan(fn func(key, val []byte) bool) (visited, read int64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, 0, ErrClosed
	}
	defer s.catchFault(debug.SetPanicOnFault(true), &err)
	for off, end := int64(0), s.end(); off < end; {
		key, val, size, err := s.record(off)
		if err != nil {
			return visited, read, err
		}
		latest, _, err := s.find(key)
		if err != nil {
			return visited, read, err
		}
		if latest == off {
			visited, read = visited+1, read+int64(len(val))
			if !fn(key, val) {
				break
			}
		}
		off += int64(size)
	}
	return visited, read, nil
}

// Len implements Store.
func (s *LogStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// SizeBytes implements Store: the log size including garbage and the
// records still buffered, which is what a real deployment pays for.
func (s *LogStore) SizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.end()
}

// Sync implements Store: a file store hands the append buffer to the
// kernel. Like the paper's BerkeleyDB configuration it does NOT fsync —
// lineage is a recoverable cache and crash durability is explicitly out of
// scope. A memory store drops the growth slack of its log.
func (s *LogStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

// flushLocked writes the append buffer to the file and moves the readable
// bound of the mapping past it, remapping first when the mapping is too
// short. When the write is short or torn the file keeps the bytes it
// accepted, the buffer stays whole — its records remain readable from it
// — and the next flush writes the rest. A memory store's log is copied
// into an exact-size slice instead, once per flush that finds it grown.
func (s *LogStore) flushLocked() error {
	if len(s.tail) == 0 {
		return nil
	}
	if err := fault.Inject(fpFlush); err != nil {
		return err
	}
	if s.f == nil {
		if cap(s.tail) > len(s.tail) {
			log := make([]byte, len(s.tail))
			copy(log, s.tail)
			s.tail = log
		}
		return nil
	}
	if s.written < len(s.tail) {
		n, err := s.f.Write(s.tail[s.written:])
		s.written += n
		if err != nil {
			return fmt.Errorf("kvstore: flush: %w", err)
		}
	}
	end := s.end()
	if end > int64(len(s.data)) {
		if err := s.remap(end); err != nil {
			return err
		}
	}
	s.tailOff, s.written = end, 0
	if cap(s.tail) > 2*writeBufBytes {
		s.tail = nil // grown for one oversized record; do not keep it
	} else {
		s.tail = s.tail[:0]
	}
	return nil
}

// Close implements Store.
func (s *LogStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.f != nil {
		err = errors.Join(s.flushLocked(), munmap(s.data), s.f.Close())
	}
	s.closed = true
	s.data, s.tail, s.slots = nil, nil, nil
	return err
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
