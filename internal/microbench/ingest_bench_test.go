package microbench

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
)

// BenchmarkIngestSerial measures lineage capture cost through the same
// Writer the executor uses. b.ReportMetric publishes what the operator
// thread paid per pair (op-ns/pair: WriteTime + FlushTime) and the bulk
// encodes alone (encode-ns/pair: WriteTime).

const (
	ingestSide   = 256
	ingestPairs  = 4096
	ingestFanin  = 8
	ingestFanout = 4
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

func benchmarkIngest(b *testing.B, strat lineage.Strategy) {
	if ingestFix == nil {
		ingestFix = newIngestFixture()
	}
	fix := ingestFix
	b.ReportAllocs()
	var opNS, encodeNS float64
	for n := 0; n < b.N; n++ {
		bld, err := lineage.NewBuilder(kvstore.NewMem(), strat, fix.outSpace, fix.inSpaces)
		if err != nil {
			b.Fatal(err)
		}
		payload := strat.Mode != lineage.Full
		w := lineage.NewWriter(fix.outSpace, fix.inSpaces, []*lineage.Builder{bld}, nil)
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
		stores, err := w.Flush()
		if err != nil {
			b.Fatal(err)
		}
		ss := stores[0].Stats()
		opNS += float64(ss.WriteTime + ss.FlushTime)
		encodeNS += float64(ss.WriteTime)
	}
	pairs := float64(b.N * ingestPairs)
	b.ReportMetric(opNS/pairs, "op-ns/pair")
	b.ReportMetric(encodeNS/pairs, "encode-ns/pair")
}

func BenchmarkIngestSerial(b *testing.B) {
	for _, strat := range []lineage.Strategy{lineage.StratFullOne, lineage.StratFullMany, lineage.StratPayOne, lineage.StratFullOneFwd} {
		b.Run(strat.ID(), func(b *testing.B) { benchmarkIngest(b, strat) })
	}
}
