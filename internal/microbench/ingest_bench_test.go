package microbench

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
)

// The write-path microbenchmarks measure lineage capture cost through the
// same Writer the executor uses: BenchmarkIngestSerial is the synchronous
// baseline, BenchmarkIngestSharded* run the asynchronous pipeline.
// b.ReportMetric publishes the part the operator thread paid, which is
// the quantity the sharded pipeline exists to shrink.

const (
	ingestSide     = 256
	ingestPairs    = 4096
	ingestFanin    = 8
	ingestFanout   = 4
	ingestBlockLen = 64
)

type ingestFixture struct {
	outSpace *grid.Space
	inSpaces []*grid.Space
	pairs    []lineage.RegionPair
	payloads [][]byte // one per pair, for the payload strategies
}

func newIngestFixture() *ingestFixture {
	space := grid.NewSpace(grid.Shape{ingestSide, ingestSide})
	rng := rand.New(rand.NewSource(77))
	size := int64(space.Size())
	pairs := make([]lineage.RegionPair, ingestPairs)
	payloads := make([][]byte, ingestPairs)
	for i := range pairs {
		rp := lineage.RegionPair{Ins: make([][]uint64, 1)}
		base := rng.Int63n(size - ingestFanout)
		for j := 0; j < ingestFanout; j++ {
			rp.Out = append(rp.Out, uint64(base)+uint64(j))
		}
		inBase := rng.Int63n(size - ingestFanin)
		for j := 0; j < ingestFanin; j++ {
			rp.Ins[0] = append(rp.Ins[0], uint64(inBase)+uint64(j))
		}
		rp.Normalize()
		pairs[i] = rp
		payloads[i] = binary.AppendUvarint(nil, uint64(inBase))
	}
	return &ingestFixture{outSpace: space, inSpaces: []*grid.Space{space}, pairs: pairs, payloads: payloads}
}

var ingestFix *ingestFixture

func benchmarkIngest(b *testing.B, strat lineage.Strategy, shards int) {
	if ingestFix == nil {
		ingestFix = newIngestFixture()
	}
	fix := ingestFix
	b.ReportAllocs()
	var opNS, encodeNS float64
	for n := 0; n < b.N; n++ {
		st, err := lineage.OpenStore(kvstore.NewMem(), strat, fix.outSpace, fix.inSpaces)
		if err != nil {
			b.Fatal(err)
		}
		var coord *lineage.Coordinator
		payload := strat.Mode != lineage.Full
		var w *lineage.Writer
		if payload {
			w = lineage.NewWriter(fix.outSpace, fix.inSpaces, nil, []*lineage.Store{st}, nil)
		} else {
			w = lineage.NewWriter(fix.outSpace, fix.inSpaces, []*lineage.Store{st}, nil, nil)
		}
		if shards > 1 {
			coord = lineage.NewCoordinator(context.Background(), lineage.IngestConfig{Shards: shards}, nil)
			w.UseIngest(coord)
		}
		for i := range fix.pairs {
			var err error
			if payload {
				err = w.LWritePayload(fix.pairs[i].Out, fix.payloads[i])
			} else {
				err = w.LWrite(fix.pairs[i].Out, fix.pairs[i].Ins...)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		if coord != nil {
			if err := coord.Close(); err != nil {
				b.Fatal(err)
			}
		}
		// The operator thread pays the whole write and the final flush
		// serially, only the handoff and drain when sharded.
		ss := st.Stats()
		if ss.Shards > 0 {
			opNS += float64(ss.EnqueueTime + ss.FlushTime)
		} else {
			opNS += float64(ss.CriticalWriteTime())
		}
		encodeNS += float64(ss.WriteTime)
	}
	pairs := float64(b.N * ingestPairs)
	b.ReportMetric(opNS/pairs, "op-ns/pair")
	b.ReportMetric(encodeNS/pairs, "encode-ns/pair")
}

func BenchmarkIngestSerial(b *testing.B) {
	for _, strat := range []lineage.Strategy{lineage.StratFullOne, lineage.StratFullMany, lineage.StratPayOne, lineage.StratFullOneFwd} {
		b.Run(strat.ID(), func(b *testing.B) { benchmarkIngest(b, strat, 0) })
	}
}

func BenchmarkIngestSharded(b *testing.B) {
	for _, shards := range []int{2, 4} {
		for _, strat := range []lineage.Strategy{lineage.StratFullOne, lineage.StratFullMany} {
			b.Run(fmt.Sprintf("%s/shards=%d", strat.ID(), shards), func(b *testing.B) {
				benchmarkIngest(b, strat, shards)
			})
		}
	}
}

// BenchmarkIngestEnqueue isolates the enqueue hot path the operator
// thread pays per lwrite block under the sharded pipeline.
func BenchmarkIngestEnqueue(b *testing.B) {
	if ingestFix == nil {
		ingestFix = newIngestFixture()
	}
	fix := ingestFix
	newStores := func() []*lineage.Store {
		st, err := lineage.OpenStore(kvstore.NewMem(), lineage.StratFullOne, fix.outSpace, fix.inSpaces)
		if err != nil {
			b.Fatal(err)
		}
		return []*lineage.Store{st}
	}
	coord := lineage.NewCoordinator(context.Background(), lineage.IngestConfig{Shards: 4, Depth: 64}, nil)
	defer coord.Close()
	stores := newStores()
	block := make([]lineage.RegionPair, ingestBlockLen)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		copy(block, fix.pairs[(n*ingestBlockLen)%(ingestPairs-ingestBlockLen):])
		if err := coord.Enqueue(stores, block); err != nil {
			b.Fatal(err)
		}
		block = make([]lineage.RegionPair, ingestBlockLen)
		if n%32 == 31 {
			if err := coord.Barrier(); err != nil {
				b.Fatal(err)
			}
			// A store buffers its cell entries until its one Flush, so
			// each 32 blocks go to a fresh store to keep memory bounded.
			b.StopTimer()
			stores = newStores()
			b.StartTimer()
		}
	}
	b.StopTimer()
	if err := coord.Barrier(); err != nil {
		b.Fatal(err)
	}
}
