package kvstore

import (
	"time"

	"subzero/internal/obs"
)

// instrumented decorates a Store with obs counters. The Manager wraps
// every store it opens once metrics are attached, so all lineage I/O —
// including the 256-key GetBatch lookup hot path and the ingest workers'
// group commits — is accounted without the callers knowing.
//
// Single Gets and Puts pay only atomic adds; batch calls additionally pay
// two clock reads and one closure allocation, amortized over the batch.
type instrumented struct {
	s Store
	m *obs.KVObs
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
	var bytes int64
	err := i.s.GetBatch(keys, func(idx int, val []byte, ok bool) bool {
		if ok {
			bytes += int64(len(val))
		}
		return fn(idx, val, ok)
	})
	i.m.GetBatchLatency.ObserveSince(start)
	i.m.GetBatches.Inc()
	i.m.KeysRead.Add(int64(len(keys)))
	i.m.BytesRead.Add(bytes)
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
