package lineage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"subzero/internal/bitmap"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
)

// The writer routes each pair kind to the builders whose mode consumes it,
// and returns their stores in builder order.
func TestWriterRoutesToStores(t *testing.T) {
	var builders []*Builder
	for _, strat := range []Strategy{StratFullOne, StratPayOne, StratFullOneFwd} {
		builders = append(builders, newBuilder(t, kvstore.NewMem(), strat))
	}
	w := NewWriter(tOutSpace, tInSpaces, builders, nil)
	if err := w.LWrite([]uint64{1, 2}, []uint64{5}, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if err := w.LWritePayload([]uint64{4}, []byte{9}); err != nil {
		t.Fatal(err)
	}
	stores := flushWriter(t, w)
	full, pay, fullFwd := stores[0], stores[1], stores[2]
	if full.Strategy() != StratFullOne || pay.Strategy() != StratPayOne || fullFwd.Strategy() != StratFullOneFwd {
		t.Fatalf("stores %s, %s, %s are not in builder order", full.Strategy(), pay.Strategy(), fullFwd.Strategy())
	}
	if full.NumPairs() != 1 || fullFwd.NumPairs() != 1 {
		t.Fatalf("full stores pairs=(%d,%d), want (1,1)", full.NumPairs(), fullFwd.NumPairs())
	}
	if pay.NumPairs() != 1 {
		t.Fatalf("pay store pairs=%d, want 1", pay.NumPairs())
	}
	if w.Elapsed() <= 0 {
		t.Fatal("elapsed not recorded")
	}

	// Both full stores must answer; the forward store answers forward
	// queries directly.
	q := bitmap.FromCells(tOutSpace, []uint64{1})
	dst := bitmap.New(tInSpaces[0])
	if err := full.Backward(q, dst, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !dst.Get(5) {
		t.Fatal("backward store missing lineage")
	}
	qf := bitmap.FromCells(tInSpaces[1], []uint64{3})
	dstF := bitmap.New(tOutSpace)
	if err := fullFwd.Forward(qf, dstF, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !dstF.Get(1) || !dstF.Get(2) {
		t.Fatal("forward store missing lineage")
	}
}

// The builder's final Flush — here the write of every buffered cell entry —
// runs on the operator thread, so it is charged to FlushTime, which the
// optimizer counts beside WriteTime.
func TestSerialFlushIsCharged(t *testing.T) {
	for _, strat := range oneStrategies() {
		b := newBuilder(t, kvstore.NewMem(), strat)
		w := NewWriter(tOutSpace, tInSpaces, []*Builder{b}, nil)
		var err error
		for _, rp := range toStorePairs(strat, randomPairs(rand.New(rand.NewSource(4)), 200)) {
			if strat.Mode == Full {
				err = w.LWrite(rp.Out, rp.Ins...)
			} else {
				err = w.LWritePayload(rp.Out, rp.Payload)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := w.flushBuffers(); err != nil {
			t.Fatal(err)
		}
		if len(b.refs[0]) == 0 {
			t.Fatalf("%s: no cell entries pending before the writer's Flush", strat)
		}
		ss := flushWriter(t, w)[0].Stats()
		if ss.WriteTime <= 0 || ss.FlushTime <= 0 {
			t.Fatalf("%s: stats %+v, want WriteTime and FlushTime > 0", strat, ss)
		}
	}
}

func TestWriterCopiesCallerBuffers(t *testing.T) {
	w := NewWriter(tOutSpace, tInSpaces, []*Builder{newBuilder(t, kvstore.NewMem(), StratFullOne)}, nil)
	out := []uint64{1}
	in0 := []uint64{2}
	in1 := []uint64{}
	if err := w.LWrite(out, in0, in1); err != nil {
		t.Fatal(err)
	}
	out[0], in0[0] = 300, 300 // caller reuses buffers
	full := flushWriter(t, w)[0]
	q := bitmap.FromCells(tOutSpace, []uint64{1})
	dst := bitmap.New(tInSpaces[0])
	if err := full.Backward(q, dst, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !dst.Get(2) || dst.Get(300) {
		t.Fatal("writer aliased caller buffers")
	}
}

func TestWriterSinkMode(t *testing.T) {
	var captured []RegionPair
	sink := func(rp *RegionPair) error {
		// The pair lives in the writer's staging for this call only.
		captured = append(captured, RegionPair{Out: slices.Clone(rp.Out), Ins: [][]uint64{slices.Clone(rp.Ins[0]), slices.Clone(rp.Ins[1])}})
		return nil
	}
	w := NewWriter(tOutSpace, tInSpaces, nil, sink)
	if err := w.LWrite([]uint64{3}, []uint64{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	if stores := flushWriter(t, w); len(stores) != 0 {
		t.Fatalf("a writer without builders returned %d stores", len(stores))
	}
	if len(captured) != 1 || captured[0].Out[0] != 3 || len(captured[0].Ins[0]) != 2 {
		t.Fatalf("sink captured %+v", captured)
	}
}

func TestWriterValidation(t *testing.T) {
	w := NewWriter(tOutSpace, tInSpaces, nil, nil)
	if err := w.LWrite([]uint64{1}, []uint64{2}); err == nil {
		t.Fatal("wrong input-set count accepted")
	}
	if err := w.LWrite([]uint64{1 << 30}, []uint64{1}, nil); err == nil {
		t.Fatal("out-of-range output accepted")
	}
	if err := w.LWritePayload([]uint64{}, []byte{1}); err == nil {
		t.Fatal("empty output set accepted")
	}
}

func TestWriterBufferFlushThreshold(t *testing.T) {
	b := newBuilder(t, kvstore.NewMem(), StratFullMany)
	w := NewWriter(tOutSpace, tInSpaces, []*Builder{b}, nil)
	// Write enough cells to trigger the internal threshold flush.
	big := make([]uint64, 300)
	for i := range big {
		big[i] = uint64(i)
	}
	for p := 0; p < 300; p++ {
		if err := w.LWrite([]uint64{uint64(p)}, big, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Some pairs must already be in the builder before the final Flush.
	if b.s.NumPairs() == 0 {
		t.Fatal("threshold flush never triggered")
	}
	if n := flushWriter(t, w)[0].NumPairs(); n != 300 {
		t.Fatalf("pairs=%d, want 300", n)
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.RecordRun("op1", 100, 10, 5, 50, 200, 0)
	c.RecordRun("op1", 100, 10, 5, 50, 200, 0)
	c.RecordQueryStep("op1", 25, false)
	c.RecordQueryStep("op1", 25, true)

	st := c.Get("op1")
	if st.Runs != 2 || st.Pairs != 10 || st.ExecTime != 200 {
		t.Fatalf("run stats=%+v", st)
	}
	if st.QuerySteps != 2 || st.Reexecs != 1 || st.QueryTime != 50 {
		t.Fatalf("query stats=%+v", st)
	}
	if st.AvgExecTime() != 100 {
		t.Fatalf("avg exec=%v", st.AvgExecTime())
	}
	if got := c.Get("ghost"); got.Runs != 0 {
		t.Fatal("unknown node should be zero")
	}
	c.RecordRun("op0", 1, 1, 1, 1, 1, 1)
	all := c.All()
	if len(all) != 2 || all[0].NodeID != "op0" {
		t.Fatalf("All=%v", all)
	}
}

func TestOpStatsZeroDivision(t *testing.T) {
	var st OpStats
	if st.AvgExecTime() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}
}

// stagingPairs generates pairs over outSpace large enough that a few
// hundred cross the writer's flush threshold, payload pairs included:
// unsorted cell sets with duplicates.
func stagingPairs(rng *rand.Rand, outSpace *grid.Space, n int) []RegionPair {
	cells := func(size uint64, max int) []uint64 {
		set := make([]uint64, 1+rng.Intn(max))
		for i := range set {
			set[i] = uint64(rng.Int63n(int64(size)))
		}
		return set
	}
	pairs := make([]RegionPair, n)
	for i := range pairs {
		pairs[i] = RegionPair{
			Out: cells(outSpace.Size(), 800),
			Ins: [][]uint64{cells(tInSpaces[0].Size(), 300), cells(tInSpaces[1].Size(), 40)},
		}
	}
	return pairs
}

// The writer reuses its staging after every bulk encode and callers reuse
// their buffers after every call; neither may reach a store. A store fed by
// a caller that clears every buffer right after each call, across several
// threshold flushes, must hold exactly what a store fed fresh copies
// holds: the same log bytes and the same answers.
func TestWriterStagingReuse(t *testing.T) {
	outSpace := grid.NewSpace(grid.Shape{64, 64})
	pairs := stagingPairs(rand.New(rand.NewSource(23)), outSpace, 560)
	for _, strat := range []Strategy{StratFullOne, StratFullMany, StratFullOneFwd, StratPayOne} {
		payload := strat.Mode != Full
		stored := pairs
		if payload {
			stored = make([]RegionPair, len(pairs))
			for i, rp := range pairs {
				// The small input set stands in for both, which keeps map_p
				// cheap; the answers are compared, not derived.
				small := grid.SortCells(slices.Clone(rp.Ins[1]))
				stored[i] = RegionPair{Out: rp.Out, Payload: testPayload([][]uint64{small, small})}
			}
		}
		var outCells, cells int
		for _, rp := range stored {
			outCells += len(grid.SortCells(slices.Clone(rp.Out)))
			cells += len(grid.SortCells(slices.Clone(rp.Out)))
			for _, in := range rp.Ins {
				cells += len(grid.SortCells(slices.Clone(in)))
			}
		}
		if payload {
			cells = outCells
		}
		if cells < 3*flushCellThreshold {
			t.Fatalf("%s: %d staged cells cross the flush threshold fewer than 3 times", strat, cells)
		}
		t.Run(strat.ID(), func(t *testing.T) {
			// feed writes the pairs through a writer into a builder over a
			// new file and returns its store and the file's path.
			feed := func(name string, reuse bool) (*Store, string) {
				path := filepath.Join(t.TempDir(), name)
				fs, err := kvstore.OpenFile(path)
				if err != nil {
					t.Fatal(err)
				}
				b, err := NewBuilder(fs, strat, outSpace, tInSpaces)
				if err != nil {
					t.Fatal(err)
				}
				w := NewWriter(outSpace, tInSpaces, []*Builder{b}, nil)
				var out []uint64
				ins := make([][]uint64, 2)
				var blob []byte
				for _, rp := range stored {
					if reuse {
						out = append(out[:0], rp.Out...)
						blob = append(blob[:0], rp.Payload...)
						for i := range rp.Ins {
							ins[i] = append(ins[i][:0], rp.Ins[i]...)
						}
					} else {
						out, blob = slices.Clone(rp.Out), slices.Clone(rp.Payload)
						for i := range rp.Ins {
							ins[i] = slices.Clone(rp.Ins[i])
						}
					}
					var err error
					if payload {
						err = w.LWritePayload(out, blob)
					} else {
						err = w.LWrite(out, ins...)
					}
					if err != nil {
						t.Fatal(err)
					}
					if !reuse {
						continue
					}
					if !slices.Equal(out, rp.Out) || !payload && (!slices.Equal(ins[0], rp.Ins[0]) || !slices.Equal(ins[1], rp.Ins[1])) {
						t.Fatal("writer modified the caller's cell sets")
					}
					// The caller reuses every buffer at once.
					clear(out)
					clear(blob)
					for _, in := range ins {
						clear(in)
					}
				}
				return flushWriter(t, w)[0], path
			}
			ref, refPath := feed("ref.log", false)
			got, gotPath := feed("got.log", true)

			if got.NumPairs() != ref.NumPairs() {
				t.Fatalf("NumPairs = %d, want %d", got.NumPairs(), ref.NumPairs())
			}
			// The meta sidecar holds write timings, so only the log is
			// compared byte for byte.
			a, err := os.ReadFile(gotPath)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(refPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("log bytes differ from a store fed fresh copies")
			}
			var mapp PayloadFn
			if payload {
				mapp = testMapP
			}
			rng := rand.New(rand.NewSource(3))
			for trial := 0; trial < 10; trial++ {
				q := randomQuery(rng, outSpace, 30)
				a, b := bitmap.New(tInSpaces[0]), bitmap.New(tInSpaces[0])
				if err := got.Backward(q, a, 0, mapp, nil, nil); err != nil {
					t.Fatal(err)
				}
				if err := ref.Backward(q, b, 0, mapp, nil, nil); err != nil {
					t.Fatal(err)
				}
				if !bitmapsEqual(a, b) {
					t.Fatalf("trial %d: backward answer differs", trial)
				}
				fq := randomQuery(rng, tInSpaces[1], 5)
				fa, fb := bitmap.New(outSpace), bitmap.New(outSpace)
				if err := got.Forward(fq, fa, 1, mapp, nil); err != nil {
					t.Fatal(err)
				}
				if err := ref.Forward(fq, fb, 1, mapp, nil); err != nil {
					t.Fatal(err)
				}
				if !bitmapsEqual(fa, fb) {
					t.Fatalf("trial %d: forward answer differs", trial)
				}
			}
		})
	}
}

// Between flushes a warm writer stages a pair without allocating: the
// cells, Ins headers and pair go into arenas the previous batch grew.
func TestLWriteAllocFree(t *testing.T) {
	for _, strat := range []Strategy{StratFullOne, StratPayOne} {
		b := newBuilder(t, kvstore.NewMem(), strat)
		payload := strat.Mode != Full
		w := NewWriter(tOutSpace, tInSpaces, []*Builder{b}, nil)
		var err error
		out, in0, in1 := []uint64{9, 3, 3, 120}, []uint64{7, 8, 9, 300}, []uint64{1, 0}
		blob := []byte{1, 2, 3}
		write := func() {
			if payload {
				err = w.LWritePayload(out, blob)
			} else {
				err = w.LWrite(out, in0, in1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		// Warm: write until a threshold flush has encoded one whole batch.
		for b.s.NumPairs() == 0 {
			write()
		}
		if allocs := testing.AllocsPerRun(200, write); allocs != 0 {
			t.Fatalf("%s: warm LWrite allocates %.2f/op, want 0", strat, allocs)
		}
		if w.bufCells == 0 {
			t.Fatalf("%s: measured calls crossed a flush", strat)
		}
	}
}
