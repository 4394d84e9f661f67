package kvstore

import (
	"sync"
	"time"

	"subzero/internal/obs"
)

// instrumented decorates a Store with obs counters. The Manager wraps
// every store it opens once metrics are attached, so all lineage I/O —
// including the 256-key GetBatch lookup hot path and the group commits of
// capture — is accounted without the callers knowing.
//
// Single Gets and Puts pay only atomic adds; batch calls additionally pay
// two clock reads and a histogram observation, amortized over the batch.
// Nothing is allocated per call (TestInstrumentedGetBatchAllocFree).
type instrumented struct {
	s Store
	m *obs.KVObs
}

// byteCounter sums the value bytes a GetBatch lends its callback. It is
// pooled and its count method value is bound once, so wrapping a caller's
// callback allocates nothing.
type byteCounter struct {
	fn    func(idx int, val []byte, ok bool) bool
	bytes int64
	count func(idx int, val []byte, ok bool) bool // c.add
}

func (c *byteCounter) add(idx int, val []byte, ok bool) bool {
	if ok {
		c.bytes += int64(len(val))
	}
	return c.fn(idx, val, ok)
}

var counterPool = sync.Pool{
	New: func() any {
		c := new(byteCounter)
		c.count = c.add
		return c
	},
}

// Instrument wraps s so every operation is counted in m. It returns s
// unchanged when m is nil.
func Instrument(s Store, m *obs.KVObs) Store {
	if m == nil {
		return s
	}
	return &instrumented{s: s, m: m}
}

func (i *instrumented) Put(key, val []byte) error {
	err := i.s.Put(key, val)
	i.m.Puts.Inc()
	i.m.KeysWritten.Inc()
	if err == nil {
		i.m.BytesWritten.Add(int64(len(val)))
	}
	return err
}

func (i *instrumented) Get(key []byte) ([]byte, bool, error) {
	v, ok, err := i.s.Get(key)
	i.m.Gets.Inc()
	i.m.KeysRead.Inc()
	if ok {
		i.m.BytesRead.Add(int64(len(v)))
	}
	return v, ok, err
}

func (i *instrumented) GetBatch(keys [][]byte, fn func(idx int, val []byte, ok bool) bool) error {
	start := time.Now()
	c := counterPool.Get().(*byteCounter)
	c.fn, c.bytes = fn, 0
	err := i.s.GetBatch(keys, c.count)
	i.m.GetBatchLatency.ObserveSince(start)
	i.m.GetBatches.Inc()
	i.m.KeysRead.Add(int64(len(keys)))
	i.m.BytesRead.Add(c.bytes)
	c.fn = nil
	counterPool.Put(c)
	return err
}

func (i *instrumented) PutBatch(kvs []KV) error {
	start := time.Now()
	err := i.s.PutBatch(kvs)
	i.m.PutBatchLatency.ObserveSince(start)
	i.m.PutBatches.Inc()
	i.m.KeysWritten.Add(int64(len(kvs)))
	if err == nil {
		var bytes int64
		for _, kv := range kvs {
			bytes += int64(len(kv.Val))
		}
		i.m.BytesWritten.Add(bytes)
	}
	return err
}

func (i *instrumented) CommitMeta(val []byte) error {
	err := i.s.CommitMeta(val)
	if err == nil {
		i.m.BytesWritten.Add(int64(len(val)))
	}
	return err
}

func (i *instrumented) LoadMeta() ([]byte, bool, error) {
	v, ok, err := i.s.LoadMeta()
	if ok {
		i.m.BytesRead.Add(int64(len(v)))
	}
	return v, ok, err
}

func (i *instrumented) Scan(fn func(key, val []byte) bool) error {
	i.m.Scans.Inc()
	return i.s.Scan(func(key, val []byte) bool {
		i.m.KeysRead.Inc()
		i.m.BytesRead.Add(int64(len(val)))
		return fn(key, val)
	})
}

func (i *instrumented) Len() int         { return i.s.Len() }
func (i *instrumented) SizeBytes() int64 { return i.s.SizeBytes() }
func (i *instrumented) Sync() error      { return i.s.Sync() }
func (i *instrumented) Close() error     { return i.s.Close() }
