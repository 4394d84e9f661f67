package lineage

import (
	"fmt"
	"time"

	"subzero/internal/grid"
	"subzero/internal/obs"
	"subzero/internal/trace"
)

// Writer implements the lwrite half of the runtime API (paper Table I) for
// a single operator execution. Operators call LWrite with explicit region
// pairs and LWritePayload with (outcells, payload) pairs; the writer
// normalizes and validates them, buffers blocks of pairs in memory, and
// bulk-encodes each block into every store whose strategy consumes that
// pair kind ("Blocks of region pairs are buffered in memory, and bulk
// encoded using the Encoder", §VI-A).
//
// During black-box re-execution the executor attaches a sink instead of
// stores; pairs stream to the query join without being persisted.
type Writer struct {
	outSpace *grid.Space
	inSpaces []*grid.Space

	fullStores []*Store // strategies consuming explicit pairs (Full)
	payStores  []*Store // strategies consuming payload pairs (Pay, Comp)
	sink       func(*RegionPair) error

	// coord, when set, routes buffered blocks to the sharded asynchronous
	// ingest pipeline instead of encoding them inline; the operator thread
	// then pays only the enqueue cost.
	coord *Coordinator

	// span, when set, parents trace spans around ingest enqueue and the
	// end-of-run drain barrier. Nil (the sampled-off path) costs nothing.
	span *trace.Span

	fullBuf  []RegionPair
	payBuf   []RegionPair
	bufCells int
	elapsed  time.Duration
}

// flushCellThreshold bounds the cells buffered before a bulk encode.
const flushCellThreshold = 1 << 16

// NewWriter creates a writer for one operator execution. fullStores
// receive LWrite pairs, payStores receive LWritePayload pairs, and sink
// (optional) receives every pair for tracing-mode re-execution.
func NewWriter(outSpace *grid.Space, inSpaces []*grid.Space, fullStores, payStores []*Store, sink func(*RegionPair) error) *Writer {
	return &Writer{
		outSpace:   outSpace,
		inSpaces:   inSpaces,
		fullStores: fullStores,
		payStores:  payStores,
		sink:       sink,
	}
}

// UseIngest switches the writer to the asynchronous ingest pipeline:
// buffered blocks are handed to the coordinator's shard workers instead
// of being encoded on the calling thread, and every store records the
// shard count that builds it. Call before the first LWrite.
func (w *Writer) UseIngest(c *Coordinator) {
	if c == nil || !c.cfg.Enabled() {
		return
	}
	w.coord = c
	for _, s := range w.fullStores {
		s.setShards(c.Shards())
	}
	for _, s := range w.payStores {
		s.setShards(c.Shards())
	}
}

// SetSpan attaches the trace span under which ingest enqueue and drain
// spans are created. Call alongside UseIngest, before the first LWrite.
func (w *Writer) SetSpan(sp *trace.Span) { w.span = sp }

// LWrite records a full region pair: outcells in the output array and one
// cell set per input array (lwrite(outcells, incells1, ..., incellsn)).
// The writer copies the slices, so callers may reuse their buffers.
func (w *Writer) LWrite(out []uint64, ins ...[]uint64) error {
	start := time.Now()
	defer func() { w.elapsed += time.Since(start) }()
	if len(ins) != len(w.inSpaces) {
		return fmt.Errorf("lineage: lwrite got %d input sets, operator has %d inputs", len(ins), len(w.inSpaces))
	}
	rp := RegionPair{Out: append([]uint64(nil), out...), Ins: make([][]uint64, len(ins))}
	for i, in := range ins {
		rp.Ins[i] = append([]uint64(nil), in...)
	}
	rp.Normalize()
	if err := rp.Validate(w.outSpace, w.inSpaces); err != nil {
		return err
	}
	if w.sink != nil {
		if err := w.sink(&rp); err != nil {
			return err
		}
	}
	if len(w.fullStores) == 0 {
		return nil
	}
	w.fullBuf = append(w.fullBuf, rp)
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
	rp := RegionPair{
		Out:     append([]uint64(nil), out...),
		Payload: append([]byte(nil), payload...),
	}
	if rp.Payload == nil {
		rp.Payload = []byte{}
	}
	rp.Normalize()
	if err := rp.Validate(w.outSpace, w.inSpaces); err != nil {
		return err
	}
	if len(w.payStores) == 0 {
		return nil
	}
	w.payBuf = append(w.payBuf, rp)
	w.bufCells += len(rp.Out)
	if w.bufCells >= flushCellThreshold {
		return w.flushBuffers()
	}
	return nil
}

func (w *Writer) flushBuffers() error {
	if w.coord != nil {
		// Asynchronous path: ownership of the buffered blocks transfers
		// to the pipeline, so fresh buffers grow on the next LWrite.
		esp := w.span.Child("ingest.enqueue", obs.SpanIngestEnqueue)
		esp.SetAttrInt("pairs", int64(len(w.fullBuf)+len(w.payBuf)))
		defer esp.End()
		if len(w.fullBuf) > 0 {
			if err := w.coord.Enqueue(w.fullStores, w.fullBuf); err != nil {
				return err
			}
			w.fullBuf = nil
		}
		if len(w.payBuf) > 0 {
			if err := w.coord.Enqueue(w.payStores, w.payBuf); err != nil {
				return err
			}
			w.payBuf = nil
		}
		w.bufCells = 0
		return nil
	}
	if len(w.fullBuf) > 0 {
		for _, s := range w.fullStores {
			start := time.Now()
			if err := s.WritePairs(w.fullBuf); err != nil {
				return err
			}
			s.AddWriteTime(time.Since(start))
		}
		w.fullBuf = w.fullBuf[:0]
	}
	if len(w.payBuf) > 0 {
		for _, s := range w.payStores {
			start := time.Now()
			if err := s.WritePairs(w.payBuf); err != nil {
				return err
			}
			s.AddWriteTime(time.Since(start))
		}
		w.payBuf = w.payBuf[:0]
	}
	w.bufCells = 0
	return nil
}

// Flush drains buffered pairs into the stores and persists their indexes.
// Under asynchronous ingest it is the end-of-run barrier: the shard
// workers drain, then each store commits its pending entries and
// metadata. The executor calls it once when the operator's run completes;
// from then on every lookup sees the whole run.
func (w *Writer) Flush() error {
	start := time.Now()
	defer func() { w.elapsed += time.Since(start) }()
	if err := w.flushBuffers(); err != nil {
		return err
	}
	if w.coord != nil {
		bstart := time.Now()
		dsp := w.span.Child("ingest.drain", obs.SpanIngestDrain)
		if err := w.coord.Barrier(); err != nil {
			dsp.End()
			return err
		}
		dsp.End()
		// The drain barrier is operator-thread flush latency shared by
		// every store of this writer; split it so a node profiling k
		// strategies does not charge each store the other k-1 stores'
		// drain cost.
		if n := len(w.fullStores) + len(w.payStores); n > 0 {
			share := time.Since(bstart) / time.Duration(n)
			for _, s := range w.fullStores {
				s.AddFlushTime(share)
			}
			for _, s := range w.payStores {
				s.AddFlushTime(share)
			}
		}
	}
	// The store's own Flush — the pending cell-entry flush and the meta
	// commit — runs on the operator thread on either path.
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
