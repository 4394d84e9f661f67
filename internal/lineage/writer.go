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
// every store whose strategy consumes that pair kind ("Blocks of region
// pairs are buffered in memory, and bulk encoded using the Encoder",
// §VI-A).
//
// During black-box re-execution the executor attaches a sink instead of
// stores; pairs stream to the query join without being persisted.
type Writer struct {
	outSpace *grid.Space
	inSpaces []*grid.Space

	fullStores []*Store // strategies consuming explicit pairs (Full)
	payStores  []*Store // strategies consuming payload pairs (Pay, Comp)
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

// NewWriter creates a writer for one operator execution. fullStores
// receive LWrite pairs, payStores receive LWritePayload pairs, and sink
// (optional) receives every pair for tracing-mode re-execution. The pair a
// sink receives points into the writer's staging and is valid only for the
// duration of the call; a sink that keeps one must copy it.
func NewWriter(outSpace *grid.Space, inSpaces []*grid.Space, fullStores, payStores []*Store, sink func(*RegionPair) error) *Writer {
	return &Writer{
		outSpace:   outSpace,
		inSpaces:   inSpaces,
		fullStores: fullStores,
		payStores:  payStores,
		sink:       sink,
	}
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
	if len(w.fullStores) == 0 {
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
	if err := rp.Validate(w.outSpace, w.inSpaces); err != nil || len(w.payStores) == 0 {
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
	if len(st.full) > 0 {
		for _, s := range w.fullStores {
			start := time.Now()
			if err := s.WritePairs(st.full); err != nil {
				return err
			}
			s.AddWriteTime(time.Since(start))
		}
	}
	if len(st.paid) > 0 {
		for _, s := range w.payStores {
			start := time.Now()
			if err := s.WritePairs(st.paid); err != nil {
				return err
			}
			s.AddWriteTime(time.Since(start))
		}
	}
	// WritePairs keeps nothing it was given, so the staging is free again.
	st.reset()
	w.bufCells = 0
	return nil
}

// Flush drains buffered pairs into the stores, then flushes each store:
// it commits its pending entries and metadata and is sealed. The executor
// calls it once when the operator's run completes; only then do the stores
// answer lookups.
func (w *Writer) Flush() error {
	start := time.Now()
	defer func() { w.elapsed += time.Since(start) }()
	if err := w.flushBuffers(); err != nil {
		return err
	}
	if w.st != nil {
		stagingPool.Put(w.st)
		w.st = nil
	}
	flushStore := func(s *Store) error {
		fstart := time.Now()
		err := s.Flush()
		s.AddFlushTime(time.Since(fstart))
		return err
	}
	for _, s := range w.fullStores {
		if err := flushStore(s); err != nil {
			return err
		}
	}
	for _, s := range w.payStores {
		if err := flushStore(s); err != nil {
			return err
		}
	}
	return nil
}

// Elapsed returns the wall-clock time spent inside the lwrite API for this
// execution — the runtime overhead attributable to lineage capture.
func (w *Writer) Elapsed() time.Duration { return w.elapsed }
