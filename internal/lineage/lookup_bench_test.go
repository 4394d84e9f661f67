package lineage

import (
	"math/rand"
	"path/filepath"
	"testing"

	"subzero/internal/bitmap"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
)

// keyCounter counts the hashtable keys a store's lookups read.
type keyCounter struct {
	kvstore.Store
	keys int64
}

func (k *keyCounter) Get(key []byte) ([]byte, bool, error) {
	k.keys++
	return k.Store.Get(key)
}

func (k *keyCounter) GetBatch(keys [][]byte, fn func(int, []byte, bool) bool) error {
	k.keys += int64(len(keys))
	return k.Store.GetBatch(keys, fn)
}

// BenchmarkOneLookup times one lookup on each One encoding in its own
// direction, over a FileStore holding the synthetic microbenchmark's shape
// of lineage: a 400×400 array, one output cell per pair on 10% of the
// cells, 25 input cells per pair around it. The dense-column query is
// every cell of one column; the sparse-random query is 1000 random cells.
// keys/query is how many hashtable keys one lookup reads.
func BenchmarkOneLookup(b *testing.B) {
	const side = 400
	space := grid.NewSpace(grid.Shape{side, side})
	rng := rand.New(rand.NewSource(3))
	var pairs []RegionPair
	for len(pairs) < side*side/10 {
		r, c := rng.Intn(side), rng.Intn(side)
		rp := RegionPair{Out: []uint64{uint64(r*side + c)}, Ins: [][]uint64{nil}}
		for i := 0; i < 25; i++ {
			ir := min(max(r+rng.Intn(9)-4, 0), side-1)
			ic := min(max(c+rng.Intn(9)-4, 0), side-1)
			rp.Ins[0] = append(rp.Ins[0], uint64(ir*side+ic))
		}
		rp.Normalize()
		pairs = append(pairs, rp)
	}
	column := bitmap.New(space)
	for r := uint64(0); r < side; r++ {
		column.Set(r*side + 7)
	}
	queries := []struct {
		name string
		q    *bitmap.Bitmap
	}{
		{"dense-column", column},
		{"sparse-random", randomQuery(rand.New(rand.NewSource(8)), space, 1000)},
	}
	for _, strat := range []Strategy{StratFullOne, StratFullOneFwd, StratPayOne} {
		fs, err := kvstore.OpenFile(filepath.Join(b.TempDir(), "one.log"))
		if err != nil {
			b.Fatal(err)
		}
		kv := &keyCounter{Store: fs}
		st, err := OpenStore(kv, strat, space, []*grid.Space{space})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.WritePairs(toStorePairs(strat, pairs)); err != nil {
			b.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			b.Fatal(err)
		}
		for _, qc := range queries {
			b.Run(strat.ID()+"/"+qc.name, func(b *testing.B) {
				dst := bitmap.New(space)
				kv.keys = 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst.Clear()
					if strat.Orient == ForwardOpt {
						err = st.Forward(qc.q, dst, 0, nil, nil)
					} else {
						err = st.Backward(qc.q, dst, 0, testMapP, nil, nil)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(kv.keys)/float64(b.N), "keys/query")
			})
		}
		fs.Close()
	}
}
