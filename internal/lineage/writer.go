package lineage

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"subzero/internal/grid"
)

// Writer implements the lwrite half of the runtime API (paper Table I) for
// a single operator execution. Operators call LWrite with explicit region
// pairs and LWritePayload with (outcells, payload) pairs; the writer
// copies each pair into staging memory it owns, normalizes and validates
// it there, buffers blocks of pairs, and bulk-encodes each block into
// every builder whose strategy consumes that pair kind ("Blocks of region
// pairs are buffered in memory, and bulk encoded using the Encoder",
// §VI-A).
//
// During black-box re-execution the executor attaches a sink instead of
// builders; pairs stream to the query join without being persisted.
type Writer struct {
	outSpace *grid.Space
	inSpaces []*grid.Space

	// builders take LWrite pairs if their strategy is Full, LWritePayload
	// pairs otherwise (Pay, Comp); full and paid report whether any takes
	// each kind.
	builders   []*Builder
	full, paid bool
	sink       func(*RegionPair) error

	// st is taken from stagingPool at the first LWrite and goes back at
	// Flush, so no long-lived struct pins it.
	st       *staging
	bufCells int
	elapsed  time.Duration
}

// flushCellThreshold bounds the cells buffered before a bulk encode.
const flushCellThreshold = 1 << 16

// staging is the memory a writer buffers pairs in between bulk encodes:
// every staged cell set back to back in cells, the Ins headers of full
// pairs in ins, payload bytes in pay, and the pairs that slice them. A
// pair keeps pointing at the array an arena had when the pair was staged,
// so an arena that grows never invalidates it. The writer resets its
// staging after each bulk encode.
type staging struct {
	cells []uint64
	ins   [][]uint64
	pay   []byte
	full  []RegionPair // LWrite pairs
	paid  []RegionPair // LWritePayload pairs
}

var stagingPool = sync.Pool{New: func() any { return new(staging) }}

func (st *staging) reset() {
	st.cells, st.ins, st.pay = st.cells[:0], st.ins[:0], st.pay[:0]
	st.full, st.paid = st.full[:0], st.paid[:0]
}

// stagingMark is the staging's lengths before one pair, so a pair that is
// not kept can be taken back out.
type stagingMark struct{ cells, ins, pay, full int }

func (st *staging) mark() stagingMark {
	return stagingMark{len(st.cells), len(st.ins), len(st.pay), len(st.full)}
}

func (st *staging) undo(m stagingMark) {
	st.cells, st.ins, st.pay, st.full = st.cells[:m.cells], st.ins[:m.ins], st.pay[:m.pay], st.full[:m.full]
}

// addCells copies one cell set into the arena, sorts and deduplicates the
// copy there, and returns it. The caller's slice is never written.
func (st *staging) addCells(cells []uint64) []uint64 {
	from := len(st.cells)
	st.cells = append(st.cells, cells...)
	st.cells = st.cells[:from+len(grid.SortCells(st.cells[from:]))]
	return st.cells[from:len(st.cells):len(st.cells)]
}

// addIns returns n fresh Ins headers from the arena.
func (st *staging) addIns(n int) [][]uint64 {
	if n == 0 {
		return [][]uint64{} // a full pair's Ins is never nil (IsPayload)
	}
	from := len(st.ins)
	st.ins = slices.Grow(st.ins, n)[:from+n]
	return st.ins[from : from+n : from+n]
}

// addPayload copies a payload into the arena and returns the copy, never
// nil.
func (st *staging) addPayload(p []byte) []byte {
	from := len(st.pay)
	st.pay = append(st.pay, p...)
	if st.pay == nil {
		return []byte{}
	}
	return st.pay[from:len(st.pay):len(st.pay)]
}

// NewWriter creates a writer for one operator execution. Each builder
// receives the pairs its strategy's mode consumes, and sink (optional)
// receives every LWrite pair for tracing-mode re-execution. The pair a sink
// receives points into the writer's staging and is valid only for the
// duration of the call; a sink that keeps one must copy it.
func NewWriter(outSpace *grid.Space, inSpaces []*grid.Space, builders []*Builder, sink func(*RegionPair) error) *Writer {
	w := &Writer{outSpace: outSpace, inSpaces: inSpaces, builders: builders, sink: sink}
	for _, b := range builders {
		if b.s.strat.Mode == Full {
			w.full = true
		} else {
			w.paid = true
		}
	}
	return w
}

// staging returns the writer's staging, taking one from the pool first if
// it holds none.
func (w *Writer) staging() *staging {
	if w.st == nil {
		st := stagingPool.Get().(*staging)
		st.reset()
		w.st = st
	}
	return w.st
}

// LWrite records a full region pair: outcells in the output array and one
// cell set per input array (lwrite(outcells, incells1, ..., incellsn)).
// The writer copies the slices, so callers may reuse their buffers.
func (w *Writer) LWrite(out []uint64, ins ...[]uint64) error {
	start := time.Now()
	defer func() { w.elapsed += time.Since(start) }()
	if len(ins) != len(w.inSpaces) {
		return fmt.Errorf("lineage: lwrite got %d input sets, operator has %d inputs", len(ins), len(w.inSpaces))
	}
	st := w.staging()
	m := st.mark()
	rp := RegionPair{Out: st.addCells(out), Ins: st.addIns(len(ins))}
	for i, in := range ins {
		rp.Ins[i] = st.addCells(in)
	}
	if err := rp.Validate(w.outSpace, w.inSpaces); err != nil {
		st.undo(m)
		return err
	}
	// The sink gets the staged copy, so rp itself never escapes.
	st.full = append(st.full, rp)
	if w.sink != nil {
		if err := w.sink(&st.full[len(st.full)-1]); err != nil {
			st.undo(m)
			return err
		}
	}
	if !w.full {
		st.undo(m)
		return nil
	}
	out2, in2 := rp.CellCount()
	w.bufCells += out2 + in2
	if w.bufCells >= flushCellThreshold {
		return w.flushBuffers()
	}
	return nil
}

// LWritePayload records a payload pair (lwrite(outcells, payload)): the
// output cells plus a small operator-defined blob that map_p interprets at
// query time. The writer copies both arguments.
func (w *Writer) LWritePayload(out []uint64, payload []byte) error {
	start := time.Now()
	defer func() { w.elapsed += time.Since(start) }()
	st := w.staging()
	m := st.mark()
	rp := RegionPair{Out: st.addCells(out), Payload: st.addPayload(payload)}
	if err := rp.Validate(w.outSpace, w.inSpaces); err != nil || !w.paid {
		st.undo(m)
		return err
	}
	st.paid = append(st.paid, rp)
	w.bufCells += len(rp.Out)
	if w.bufCells >= flushCellThreshold {
		return w.flushBuffers()
	}
	return nil
}

func (w *Writer) flushBuffers() error {
	st := w.st
	if st == nil {
		return nil
	}
	for _, b := range w.builders {
		pairs := st.paid
		if b.s.strat.Mode == Full {
			pairs = st.full
		}
		if len(pairs) == 0 {
			continue
		}
		if err := b.WritePairs(pairs); err != nil {
			return err
		}
	}
	// WritePairs keeps nothing it was given, so the staging is free again.
	st.reset()
	w.bufCells = 0
	return nil
}

// Flush drains buffered pairs into the builders, then flushes each and
// returns their stores in builder order. The executor calls it once, when
// the operator's run completes; a writer without builders returns none.
func (w *Writer) Flush() ([]*Store, error) {
	start := time.Now()
	defer func() { w.elapsed += time.Since(start) }()
	if err := w.flushBuffers(); err != nil {
		return nil, err
	}
	if w.st != nil {
		stagingPool.Put(w.st)
		w.st = nil
	}
	stores := make([]*Store, len(w.builders))
	for i, b := range w.builders {
		st, err := b.Flush()
		if err != nil {
			return nil, err
		}
		stores[i] = st
	}
	return stores, nil
}

// Elapsed returns the wall-clock time spent inside the lwrite API for this
// execution — the runtime overhead attributable to lineage capture.
func (w *Writer) Elapsed() time.Duration { return w.elapsed }
