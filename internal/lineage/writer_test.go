package lineage

import (
	"math/rand"
	"testing"

	"subzero/internal/bitmap"
	"subzero/internal/kvstore"
)

func TestWriterRoutesToStores(t *testing.T) {
	full, _ := OpenStore(kvstore.NewMem(), StratFullOne, tOutSpace, tInSpaces)
	fullFwd, _ := OpenStore(kvstore.NewMem(), StratFullOneFwd, tOutSpace, tInSpaces)
	pay, _ := OpenStore(kvstore.NewMem(), StratPayOne, tOutSpace, tInSpaces)

	w := NewWriter(tOutSpace, tInSpaces, []*Store{full, fullFwd}, []*Store{pay}, nil)
	if err := w.LWrite([]uint64{1, 2}, []uint64{5}, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if err := w.LWritePayload([]uint64{4}, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
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

// On the serial path the store's final Flush — here the merge of every
// buffered cell entry — runs on the operator thread, so it is charged to
// FlushTime and the optimizer's CriticalWriteTime counts it.
func TestSerialFlushIsCharged(t *testing.T) {
	for _, strat := range oneStrategies() {
		st, err := OpenStore(kvstore.NewMem(), strat, tOutSpace, tInSpaces)
		if err != nil {
			t.Fatal(err)
		}
		var w *Writer
		if strat.Mode == Full {
			w = NewWriter(tOutSpace, tInSpaces, []*Store{st}, nil, nil)
		} else {
			w = NewWriter(tOutSpace, tInSpaces, nil, []*Store{st}, nil)
		}
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
		if st.pendingCount == 0 {
			t.Fatalf("%s: no cell entries pending before the writer's Flush", strat)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ss := st.Stats()
		if ss.Shards != 0 || ss.WriteTime <= 0 || ss.FlushTime <= 0 {
			t.Fatalf("%s: serial stats %+v, want WriteTime and FlushTime > 0", strat, ss)
		}
		if got := ss.CriticalWriteTime(); got != ss.WriteTime+ss.FlushTime {
			t.Fatalf("%s: CriticalWriteTime = %v, want WriteTime %v + FlushTime %v", strat, got, ss.WriteTime, ss.FlushTime)
		}
	}
}

func TestWriterCopiesCallerBuffers(t *testing.T) {
	full, _ := OpenStore(kvstore.NewMem(), StratFullOne, tOutSpace, tInSpaces)
	w := NewWriter(tOutSpace, tInSpaces, []*Store{full}, nil, nil)
	out := []uint64{1}
	in0 := []uint64{2}
	in1 := []uint64{}
	if err := w.LWrite(out, in0, in1); err != nil {
		t.Fatal(err)
	}
	out[0], in0[0] = 300, 300 // caller reuses buffers
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
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
		captured = append(captured, *rp)
		return nil
	}
	w := NewWriter(tOutSpace, tInSpaces, nil, nil, sink)
	if err := w.LWrite([]uint64{3}, []uint64{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(captured) != 1 || captured[0].Out[0] != 3 || len(captured[0].Ins[0]) != 2 {
		t.Fatalf("sink captured %+v", captured)
	}
}

func TestWriterValidation(t *testing.T) {
	w := NewWriter(tOutSpace, tInSpaces, nil, nil, nil)
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
	full, _ := OpenStore(kvstore.NewMem(), StratFullMany, tOutSpace, tInSpaces)
	w := NewWriter(tOutSpace, tInSpaces, []*Store{full}, nil, nil)
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
	// Some pairs must already be in the store before the final Flush.
	if full.NumPairs() == 0 {
		t.Fatal("threshold flush never triggered")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if full.NumPairs() != 300 {
		t.Fatalf("pairs=%d, want 300", full.NumPairs())
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
