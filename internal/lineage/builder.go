package lineage

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"time"

	"subzero/internal/binenc"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
)

// Builder writes the lineage of one operator execution under one strategy
// into an empty hashtable and returns it, at its one Flush, as the Store
// that answers lookups. A builder has one owner, the thread running the
// operator, and takes no lock. Nothing a lookup reads is written before
// Flush: records wait in the stage of their 64-id block until it holds all
// its ids, Many encodings' index items in per-slot boxes, and One
// encodings' cell entries in per-slot reference buffers.
type Builder struct {
	// s is the store Flush returns; until then only the builder sees it.
	// WritePairs assigns its pair ids (nextPair) and adds to its volume
	// counters and WriteTime, Flush builds its trees and sets FlushTime.
	s *Store

	// stage holds the records of the last block, which is not complete yet
	// (see stageRecords).
	stage blockStage

	// boxes holds each slot's index items of a Many encoding until Flush
	// bulk-loads the trees from them.
	boxes []slotBoxes

	// refs holds each slot's per-cell entries of a One encoding, one
	// append-only buffer per slot, until Flush sorts each buffer once and
	// writes every touched tile with one PutBatch. A cellRef's ref is the
	// pair id, or for payload stores the index of a payload copied into
	// pay, so the builder keeps no caller memory past WritePairs.
	refs [][]cellRef
	pay  payArena
}

// NewBuilder returns a builder writing a store of the given strategy into
// kv, which the caller opened empty: a store is written once. The strategy
// must be one that materializes pairs (Full, Pay, or Comp).
func NewBuilder(kv kvstore.Store, strat Strategy, outSpace *grid.Space, inSpaces []*grid.Space) (*Builder, error) {
	s, err := newStore(kv, strat, outSpace, inSpaces)
	if err != nil {
		return nil, err
	}
	b := &Builder{s: s}
	if strat.Enc == Many {
		b.boxes = make([]slotBoxes, s.slots())
	} else {
		b.refs = make([][]cellRef, s.slots())
	}
	return b, nil
}

// WritePairs encodes a batch of region pairs on the calling thread. Pairs
// must already be normalized and validated (the writer does both). The
// batch's records take the next ids and are staged in their 64-id blocks;
// the blocks the batch completes are group-committed through one kvstore
// batch. Nothing a lookup reads is written before Flush, which writes the
// partial block before any cell entry.
func (b *Builder) WritePairs(pairs []RegionPair) error {
	start := time.Now()
	s := b.s
	for i := range pairs {
		if err := b.checkPairKind(&pairs[i]); err != nil {
			return err
		}
	}
	a := recordArenas.Get().(*recordArena)
	defer recordArenas.Put(a)
	a.reset()
	base := s.nextPair
	if s.storesRecords() {
		b.stageRecords(a, pairs)
	}
	if s.strat.Enc == Many {
		b.bufferBoxes(pairs, base)
	} else {
		b.bufferCellEntries(pairs, base)
	}
	b.countPairs(pairs)
	err := a.commit(s.kv)
	s.stats.WriteTime += time.Since(start)
	return err
}

// checkPairKind validates that the pair carries what the strategy stores.
func (b *Builder) checkPairKind(rp *RegionPair) error {
	if wantPayload := b.s.strat.Mode != Full; rp.IsPayload() != wantPayload {
		return fmt.Errorf("lineage: %s store got %s pair", b.s.strat, pairKind(rp.IsPayload()))
	}
	return nil
}

// countPairs adds a batch to the store's volume counters.
func (b *Builder) countPairs(pairs []RegionPair) {
	st := &b.s.stats
	st.Pairs += len(pairs)
	for i := range pairs {
		rp := &pairs[i]
		st.OutCells += int64(len(rp.Out))
		for _, in := range rp.Ins {
			st.InCells += int64(len(in))
		}
		st.PayloadBytes += int64(len(rp.Payload))
	}
}

// recordArena is the scratch of one WritePairs call: the key and value of
// every block the batch completed back to back in blocks, where each ends
// (blockEnds). It is pooled, not kept per builder, so the builders of one
// node share their scratch; PutBatch copies what it keeps, so the arena is
// free again once it returns.
type recordArena struct {
	blocks    []byte
	blockEnds []int
	kvs       []kvstore.KV
}

var recordArenas = sync.Pool{New: func() any { return new(recordArena) }}

func (a *recordArena) reset() {
	a.blocks, a.blockEnds, a.kvs = a.blocks[:0], a.blockEnds[:0], a.kvs[:0]
}

// addBlock appends the key and value of one block.
func (a *recordArena) addBlock(b uint64, st *blockStage) {
	a.blocks = appendBlockKey(a.blocks, b)
	a.blockEnds = append(a.blockEnds, len(a.blocks))
	a.blocks = st.appendTo(a.blocks)
	a.blockEnds = append(a.blockEnds, len(a.blocks))
}

// commit writes the arena's blocks with one PutBatch. The batch slices the
// arena only now that it is final: an append may have moved it.
func (a *recordArena) commit(kv kvstore.Store) error {
	if len(a.blockEnds) == 0 {
		return nil
	}
	from := 0
	for i := 0; i < len(a.blockEnds); i += 2 {
		k, v := a.blockEnds[i], a.blockEnds[i+1]
		a.kvs = append(a.kvs, kvstore.KV{Key: a.blocks[from:k:k], Val: a.blocks[k:v:v]})
		from = v
	}
	return kv.PutBatch(a.kvs)
}

// stageRecords encodes the pairs' records, assigning them the next ids,
// into the stage of their block, and moves each block that then holds all
// its ids into the arena to be written. Ids are assigned in order and each
// gets its record, so blocks complete in id order and the stage holds at
// most the last, partial block between batches.
func (b *Builder) stageRecords(a *recordArena, pairs []RegionPair) {
	for i := range pairs {
		b.stage.addPair(&pairs[i])
		if b.stage.full() {
			a.addBlock(b.s.nextPair/blockIDs, &b.stage)
			b.stage.reset()
		}
		b.s.nextPair++
	}
}

// bufferBoxes appends one batch's index items (Many encodings) to the
// slots' boxes, one per pair and key-side slot; pair i has id base+i.
func (b *Builder) bufferBoxes(pairs []RegionPair, base uint64) {
	s := b.s
	for i := range pairs {
		rp, id := &pairs[i], base+uint64(i)
		if s.strat.Orient == BackwardOpt {
			b.boxes[0].add(s.outSpace, rp.Out, id)
			continue
		}
		for j, in := range rp.Ins {
			b.boxes[j].add(s.inSpaces[j], in, id)
		}
	}
}

// cellRef is one buffered per-cell entry: a cell of the slot's key side
// and the pair id, or payload index, its entry lists.
type cellRef struct{ cell, ref uint64 }

// bufferCellEntries appends one batch's per-cell references (FullOne ids,
// pair i's being base+i; PayOne payload duplicates) to the slots' buffers.
func (b *Builder) bufferCellEntries(pairs []RegionPair, base uint64) {
	records := b.s.storesRecords()
	for i := range pairs {
		rp, id := &pairs[i], base+uint64(i)
		switch {
		case !records:
			// PayOne stores no records, so its pairs have no ids: the
			// payload is duplicated under every output cell.
			ref := b.pay.add(rp.Payload)
			for _, c := range rp.Out {
				b.refs[0] = append(b.refs[0], cellRef{c, ref})
			}
		case b.s.strat.Orient == BackwardOpt:
			for _, c := range rp.Out {
				b.refs[0] = append(b.refs[0], cellRef{c, id})
			}
		default:
			for j, in := range rp.Ins {
				for _, c := range in {
					b.refs[j] = append(b.refs[j], cellRef{c, id})
				}
			}
		}
	}
}

// Flush writes the staged record block and the buffered cell entries,
// bulk-loads the indexes and syncs the hashtable. It returns the store,
// which answers lookups from then on; its pair counter, statistics and
// indexes live in memory only. A builder takes one Flush and is not used
// after it; a Flush that fails returns no store, and the caller drops the
// hashtable.
func (b *Builder) Flush() (*Store, error) {
	start := time.Now()
	s := b.s
	// Records first: no cell entry may reference a record the hashtable
	// does not hold.
	if b.stage.n > 0 {
		var a recordArena
		a.addBlock((s.nextPair-1)/blockIDs, &b.stage)
		if err := a.commit(s.kv); err != nil {
			return nil, err
		}
	}
	if err := b.putTiles(); err != nil {
		return nil, err
	}
	s.buildTrees(b.boxes)
	if err := s.kv.Sync(); err != nil {
		return nil, err
	}
	s.stats.FlushTime = time.Since(start)
	*b = Builder{} // drops the buffers; a builder is not used after Flush
	return s, nil
}

// putTiles writes the buffered per-cell entries to the hashtable, one value
// per touched (slot, tile). Each slot's buffer is sorted once
// (sortCellRefs), by cell and then by pair id or payload bytes, so a cell's
// references form one run, its list is sorted, and a tile's runs are
// consecutive. Keys and values are encoded into two arenas and written, in
// slot and tile order, by one PutBatch group commit; nothing is read back.
func (b *Builder) putTiles() error {
	n, total := 0, 0
	var pay *payArena
	if !b.s.storesRecords() {
		pay = &b.pay
	}
	for _, refs := range b.refs {
		sortCellRefs(refs, pay)
		for i := range refs {
			if i == 0 || refs[i].cell/binenc.TileCells != refs[i-1].cell/binenc.TileCells {
				n++
			}
		}
		total += len(refs)
	}
	if n == 0 {
		return nil
	}
	keyArena := make([]byte, 0, tileKeyLen*n)
	// The value arena is sized for two-byte ids; append grows it past that.
	enc := tileEncoder{pay: pay, vals: make([]byte, 0, 8*n+4*total)}
	ends := make([]int, 0, n)
	for slot, refs := range b.refs {
		for lo := 0; lo < len(refs); {
			tile := refs[lo].cell / binenc.TileCells
			hi := lo + 1
			for hi < len(refs) && refs[hi].cell/binenc.TileCells == tile {
				hi++
			}
			keyArena = appendTileKey(keyArena, slot, tile)
			enc.add(refs[lo:hi])
			ends = append(ends, len(enc.vals))
			lo = hi
		}
	}
	batch := make([]kvstore.KV, n)
	from := 0
	for i, end := range ends {
		key := keyArena[tileKeyLen*i : tileKeyLen*(i+1) : tileKeyLen*(i+1)]
		batch[i] = kvstore.KV{Key: key, Val: enc.vals[from:end:end]}
		from = end
	}
	return b.s.kv.PutBatch(batch)
}

// sortCellRefs sorts refs by cell, then by ref with pay nil, or by the
// payload bytes pay holds at ref otherwise. refs must be in ref order, as
// every buffer a builder writes is: ids and payload indexes are assigned in
// order. It is an LSD byte radix sort on
// the cell — one counting pass per byte that varies across refs — whose
// passes are stable, so each cell's refs keep their order. A payload store
// then sorts each run of references to one cell by payload bytes. The
// second buffer the passes need is allocated here, so it is garbage once
// the Flush that sorts returns rather than held for the life of the builder
// or process.
func sortCellRefs(refs []cellRef, pay *payArena) {
	if len(refs) == 0 {
		return
	}
	var cellBits uint64
	for _, r := range refs {
		cellBits |= r.cell ^ refs[0].cell
	}
	src, dst := refs, make([]cellRef, len(refs))
	for shift := 0; shift < 64; shift += 8 {
		if byte(cellBits>>shift) != 0 {
			radixPass(src, dst, shift)
			src, dst = dst, src
		}
	}
	if &src[0] != &refs[0] {
		copy(refs, src)
	}
	if pay == nil {
		return
	}
	for lo := 0; lo < len(refs); {
		hi := lo + 1
		for hi < len(refs) && refs[hi].cell == refs[lo].cell {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(refs[lo:hi], func(a, b cellRef) int {
				return bytes.Compare(pay.at(a.ref), pay.at(b.ref))
			})
		}
		lo = hi
	}
}

// radixPass stably scatters src into dst by one byte of each cellRef's
// cell.
func radixPass(src, dst []cellRef, shift int) {
	var count [256]int
	for _, r := range src {
		count[byte(r.cell>>shift)]++
	}
	sum := 0
	for b, c := range count {
		count[b], sum = sum, sum+c
	}
	for _, r := range src {
		b := byte(r.cell >> shift)
		dst[count[b]] = r
		count[b]++
	}
}

// payArena holds a payload store's buffered payloads back to back:
// payload i is buf[ends[i-1]:ends[i]].
type payArena struct {
	buf  []byte
	ends []int
}

// add copies p into the arena and returns its index.
func (a *payArena) add(p []byte) uint64 {
	a.buf = append(a.buf, p...)
	a.ends = append(a.ends, len(a.buf))
	return uint64(len(a.ends) - 1)
}

// at returns payload i.
func (a *payArena) at(i uint64) []byte {
	from := 0
	if i > 0 {
		from = a.ends[i-1]
	}
	return a.buf[from:a.ends[i]:a.ends[i]]
}

// tileEncoder appends the values of one flush's tiles to one arena,
// reusing its scratch across tiles. pay is the builder's payload arena:
// nil for id stores.
type tileEncoder struct {
	pay  *payArena
	vals []byte

	// One tile's cells, entry starts and entries, and one cell's list.
	locals  []uint64
	starts  []int
	entries []byte
	ids     []uint64
	pays    [][]byte
}

// add appends the tile value for one tile's sorted run of references.
func (e *tileEncoder) add(refs []cellRef) {
	e.locals, e.starts, e.entries = e.locals[:0], e.starts[:0], e.entries[:0]
	for lo := 0; lo < len(refs); {
		hi := lo + 1
		for hi < len(refs) && refs[hi].cell == refs[lo].cell {
			hi++
		}
		from := len(e.entries)
		e.addCell(refs[lo:hi])
		e.commit(refs[lo].cell%binenc.TileCells, from)
		lo = hi
	}
	e.vals = appendTileValue(e.vals, e.locals, e.starts, e.entries)
}

// commit records the entry appended at e.entries[from:] for one cell. An
// entry equal to the previous cell's is dropped and that entry's start
// reused, so equal neighbours share their bytes.
func (e *tileEncoder) commit(local uint64, from int) {
	if n := len(e.starts); n > 0 {
		if prev := e.starts[n-1]; bytes.Equal(e.entries[prev:from], e.entries[from:]) {
			e.entries, from = e.entries[:from], prev
		}
	}
	e.locals, e.starts = append(e.locals, local), append(e.starts, from)
}

// addCell appends one cell's entry for its sorted run of references.
func (e *tileEncoder) addCell(run []cellRef) {
	if e.pay != nil {
		e.pays = e.pays[:0]
		for _, r := range run {
			e.pays = append(e.pays, e.pay.at(r.ref))
		}
		e.entries = appendPayloadEntry(e.entries, e.pays)
		return
	}
	e.ids = e.ids[:0]
	for _, r := range run {
		e.ids = append(e.ids, r.ref)
	}
	e.entries = appendIDEntry(e.entries, e.ids)
}
