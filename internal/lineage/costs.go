package lineage

import "time"

// Cost-model constants shared by the query-time optimizer (internal/query)
// and the strategy optimizer (internal/opt) — the per-unit costs of the
// primitive operations each access path performs. They are rough
// calibrations for an in-process Go implementation: the optimizers only
// need them to be ordinally correct (mapping call < hash lookup < R-tree
// lookup < record scan < re-execution), with the workload-dependent
// factors (fanin, fanout, pair counts, measured execution times) supplied
// by the statistics collector.
const (
	// CostMapCall is one mapping-function invocation.
	CostMapCall = 250 * time.Nanosecond
	// CostCellSet is setting one result cell in the boolean array.
	CostCellSet = 15 * time.Nanosecond
	// CostLookupOne is one hash lookup plus value decode (One encodings).
	CostLookupOne = 1200 * time.Nanosecond
	// CostLookupMany is one R-tree point query (Many encodings).
	CostLookupMany = 3500 * time.Nanosecond
	// CostScanPair is scanning and decoding one pair record.
	CostScanPair = 1500 * time.Nanosecond
	// CostProbePair is probing one pair record in an unindexed scan, as
	// the strategy optimizer prices it: the query bitmap is intersected in
	// situ against the compressed containers, word-parallel, with nothing
	// materialized.
	CostProbePair = 900 * time.Nanosecond
	// CostMapPCall is one payload-function (map_p) evaluation.
	CostMapPCall = 400 * time.Nanosecond
	// CostTraceJoin is joining one traced pair against the query during
	// black-box re-execution — cheaper than CostScanPair because traced
	// pairs stream through memory without store reads or decoding.
	CostTraceJoin = 300 * time.Nanosecond

	// CostDefaultReexec is assumed for re-execution when no run has been
	// observed.
	CostDefaultReexec = 50 * time.Millisecond
)

// Write-path and storage estimation constants, used by the strategy
// optimizer to extrapolate un-profiled encodings from profiled volumes.
const (
	// EstBytesPerCell is the average encoded size of one cell index in a
	// record: the bitmap container caps every tile at 1 bit per cell
	// (0.125 B), run containers compress clustered regions below that,
	// and tiny sets take the varint sparse-direct form at a byte or two
	// per cell. The blend across the benchmark workloads sits well under
	// one byte per cell.
	EstBytesPerCell = 0.6
	// EstRecordOverhead is the fixed cost of one pair record: its flags
	// byte, each cell set's count and tile count, the input count or the
	// payload length, and its length in its block's directory plus a 1/64
	// share of the block's key and framing. The genomics records at test
	// scale measure 5.5–10 B beyond their cell bytes.
	EstRecordOverhead = 7.0
	// EstCellEntryBytes is what one key-side cell adds to its tile value
	// (One encodings): a start offset, one byte while the tile's entry
	// region is under 256 B, and its share of the tile's cell set, key and
	// framing, which dense tiles spread thin.
	EstCellEntryBytes = 1.0
	// EstIDEntryBytes is one pair id in a FullOne cell entry: its varint,
	// the list's count byte, and the second start-offset byte of a tile
	// whose cells hold distinct lists. A backward store's key cells are a
	// pair's outputs, which run together and share one entry, so it pays
	// this once per pair; a forward store's are inputs, which interleave
	// across pairs, so it pays this once per input cell.
	EstIDEntryBytes = 4.0
	// EstPayEntryBytes frames one payload entry (count and length bytes).
	// Consecutive cells of a pair share the entry, so a PayOne or CompOne
	// store holds each pair's payload about once.
	EstPayEntryBytes = 2.0
	// EstTreeEntryBytes is one serialized R-tree item (Many encodings): a
	// box as varint corners and the pair id. The genomics trees at test
	// scale measure 6.5–7.4 B per item.
	EstTreeEntryBytes = 8.0

	// EstWritePerByte is the time to serialize+buffer one byte.
	EstWritePerByte = 8 * time.Nanosecond
	// EstWritePerPair is the fixed per-pair lwrite cost: dense tiles are
	// emitted as fixed-width words or run pairs, not per-cell appends.
	EstWritePerPair = 550 * time.Nanosecond
	// EstTreeInsert is what indexing one pair adds to a Many store's
	// write cost. It was calibrated against per-pair R-tree inserts; the
	// bulk load at Flush that replaced them costs several times less, so
	// the estimate errs high.
	EstTreeInsert = 1800 * time.Nanosecond
)
