// Package microbench implements the paper's synthetic microbenchmark
// (§VIII-C, Figures 8 and 9): an operator that generates region lineage
// with tunable fanin, fanout, and payload size over a 1000×1000 array,
// used to isolate how each storage strategy's overhead and query cost
// respond to operator properties.
//
// Following the paper: "A region pair is randomly generated by selecting a
// cluster of output cells with a radius defined by fanout, and selecting
// fanin cells in the same area from the input array. We generate region
// pairs until the total number of output cells is equal to 10% of the
// output array."
//
// Payload form. The paper's payload strategy stores fanin×4 bytes per
// pair. This implementation's cell-set codec (tiled containers) stores
// full lineage at a byte or two per scattered cell and far less for
// clustered ones — tighter than a 4-bytes/cell payload — so a
// literal fanin×4 payload would be *larger* than full lineage here,
// inverting the paper's Figure 8. The default payload is therefore the
// compact equivalent the paper's real operators use (CRD stores a radius
// byte, not cells): a fixed ~21-byte descriptor (PRNG seed + window) from
// which map_p re-derives the exact input cells. Set Config.PayloadCells
// for the literal fanin×4-byte form; the ablation bench reports both.
package microbench

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/query"
	"subzero/internal/workflow"
)

// Config parameterizes the synthetic operator.
type Config struct {
	Rows, Cols int
	Coverage   float64 // fraction of output cells with lineage (paper: 0.1)
	Fanin      int     // input cells per region pair
	Fanout     int     // output cells per region pair
	Seed       int64
	// PayloadCells switches the payload to the paper's literal
	// fanin×4-byte cell list instead of the compact descriptor.
	PayloadCells bool
}

// DefaultConfig matches the paper: 1000×1000 cells, 10% coverage.
func DefaultConfig() Config {
	return Config{Rows: 1000, Cols: 1000, Coverage: 0.10, Fanin: 1, Fanout: 1, Seed: 3}
}

// NodeID is the synthetic operator's node id in the one-step workflow.
const NodeID = "synthetic"

// SyntheticOp copies its input and emits region pairs per the
// configuration. Pair generation is a deterministic function of the seed,
// so black-box re-execution traces exactly the pairs other strategies
// stored.
type SyntheticOp struct {
	workflow.Meta
	Cfg Config
}

// NewSyntheticOp builds the operator.
func NewSyntheticOp(cfg Config) *SyntheticOp {
	return &SyntheticOp{
		Meta: workflow.Meta{
			OpName: "synthetic-lineage",
			NIn:    1,
			Modes:  []lineage.Mode{lineage.Full, lineage.Pay},
		},
		Cfg: cfg,
	}
}

// OutShape implements Operator.
func (s *SyntheticOp) OutShape(in []grid.Shape) (grid.Shape, error) {
	return workflow.SameShapeOut(in)
}

// Run implements Operator.
func (s *SyntheticOp) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	out := ins[0].Clone().WithName(s.OpName)
	if !rc.NeedsPairs() && !rc.NeedsPayload() {
		return out, nil
	}
	sp := out.Space()
	rng := rand.New(rand.NewSource(s.Cfg.Seed))
	target := uint64(s.Cfg.Coverage * float64(sp.Size()))
	var written uint64
	outRadius := int(math.Ceil(math.Sqrt(float64(s.Cfg.Fanout))))
	inRadius := outRadius + 3
	var outCells, inCells []uint64
	for written < target {
		center := grid.Coord{rng.Intn(s.Cfg.Rows), rng.Intn(s.Cfg.Cols)}
		outCells = pickCluster(rng, sp, center, outRadius, s.Cfg.Fanout, outCells[:0])
		// The input cells come from a dedicated, seeded generator so the
		// compact payload can re-derive them exactly at query time.
		pairSeed := rng.Int63()
		inRng := rand.New(rand.NewSource(pairSeed))
		inCells = pickCluster(inRng, sp, center, inRadius, s.Cfg.Fanin, inCells[:0])
		if rc.NeedsPairs() {
			if err := rc.LWrite(outCells, inCells); err != nil {
				return nil, err
			}
		}
		if rc.NeedsPayload() {
			var payload []byte
			if s.Cfg.PayloadCells {
				payload = encodeCellsPayload(inCells)
			} else {
				payload = encodeCompactPayload(pairSeed, center, inRadius, s.Cfg.Fanin)
			}
			if err := rc.LWritePayload(outCells, payload); err != nil {
				return nil, err
			}
		}
		written += uint64(len(outCells))
	}
	return out, nil
}

// pickCluster selects up to n distinct cells within the Chebyshev radius
// of center, clipped to the array.
func pickCluster(rng *rand.Rand, sp *grid.Space, center grid.Coord, radius, n int, dst []uint64) []uint64 {
	window, ok := grid.Rect{
		Lo: grid.Coord{center[0] - radius, center[1] - radius},
		Hi: grid.Coord{center[0] + radius, center[1] + radius},
	}.Clip(sp.Shape())
	if !ok {
		return dst
	}
	rows := window.Hi[0] - window.Lo[0] + 1
	cols := window.Hi[1] - window.Lo[1] + 1
	if rows*cols <= n {
		return window.Cells(sp, dst)
	}
	seen := make(map[uint64]struct{}, n)
	for len(seen) < n {
		c := grid.Coord{window.Lo[0] + rng.Intn(rows), window.Lo[1] + rng.Intn(cols)}
		seen[sp.Ravel(c)] = struct{}{}
	}
	for idx := range seen {
		dst = append(dst, idx)
	}
	return dst
}

// Payload layouts, discriminated by a leading tag byte.
const (
	payloadTagCompact = 0 // seed + window descriptor, fixed size
	payloadTagCells   = 1 // literal 4-byte cell indices (paper's fanin×4)
)

func encodeCellsPayload(cells []uint64) []byte {
	buf := make([]byte, 1+4*len(cells))
	buf[0] = payloadTagCells
	for i, c := range cells {
		binary.LittleEndian.PutUint32(buf[1+4*i:], uint32(c))
	}
	return buf
}

func encodeCompactPayload(seed int64, center grid.Coord, radius, n int) []byte {
	buf := make([]byte, 21)
	buf[0] = payloadTagCompact
	binary.LittleEndian.PutUint64(buf[1:], uint64(seed))
	binary.LittleEndian.PutUint32(buf[9:], uint32(center[0]))
	binary.LittleEndian.PutUint32(buf[13:], uint32(center[1]))
	binary.LittleEndian.PutUint16(buf[17:], uint16(radius))
	binary.LittleEndian.PutUint16(buf[19:], uint16(n))
	return buf
}

// MapP implements PayloadMapper: either decode the literal cell list or
// re-derive the cluster from the stored seed and window.
func (s *SyntheticOp) MapP(mc *workflow.MapCtx, _ uint64, payload []byte, _ int, dst []uint64) []uint64 {
	if payload[0] == payloadTagCells {
		for i := 1; i+4 <= len(payload); i += 4 {
			dst = append(dst, uint64(binary.LittleEndian.Uint32(payload[i:])))
		}
		return dst
	}
	seed := int64(binary.LittleEndian.Uint64(payload[1:]))
	center := grid.Coord{
		int(binary.LittleEndian.Uint32(payload[9:])),
		int(binary.LittleEndian.Uint32(payload[13:])),
	}
	radius := int(binary.LittleEndian.Uint16(payload[17:]))
	n := int(binary.LittleEndian.Uint16(payload[19:]))
	inRng := rand.New(rand.NewSource(seed))
	return pickCluster(inRng, mc.InSpaces[0], center, radius, n, dst)
}

// StrategyNames lists the Figure-8/9 strategies in paper order.
var StrategyNames = []string{
	"<-PayMany", "<-PayOne", "<-FullMany", "<-FullOne", "->FullOne", "BlackBox",
}

func planFor(name string) (workflow.Plan, error) {
	switch name {
	case "<-PayMany":
		return workflow.Plan{NodeID: {lineage.StratPayMany}}, nil
	case "<-PayOne":
		return workflow.Plan{NodeID: {lineage.StratPayOne}}, nil
	case "<-FullMany":
		return workflow.Plan{NodeID: {lineage.StratFullMany}}, nil
	case "<-FullOne":
		return workflow.Plan{NodeID: {lineage.StratFullOne}}, nil
	case "->FullOne":
		return workflow.Plan{NodeID: {lineage.StratFullOneFwd}}, nil
	case "BlackBox":
		return workflow.Plan{}, nil
	}
	return nil, fmt.Errorf("microbench: unknown strategy %q", name)
}

// Result is one microbenchmark measurement point.
type Result struct {
	Strategy      string
	Fanin, Fanout int
	RunTime       time.Duration
	LineageBytes  int64
	BackwardQuery time.Duration
	ForwardQuery  time.Duration
	BackwardCells int
	ForwardCells  int
}

// QueryCellCount is the number of query cells per measured query
// (paper: "queries that access the backward/forward lineage of 1000
// output/input cells").
const QueryCellCount = 1000

// Run executes the one-operator workflow under a strategy and measures
// write overhead plus one backward and one forward query of
// QueryCellCount cells.
func Run(ctx context.Context, cfg Config, strategy, storageRoot string) (*Result, error) {
	plan, err := planFor(strategy)
	if err != nil {
		return nil, err
	}
	spec := workflow.NewSpec("microbench")
	spec.Add(NodeID, NewSyntheticOp(cfg), workflow.FromExternal("input"))

	input, err := array.New("input", grid.Shape{cfg.Rows, cfg.Cols})
	if err != nil {
		return nil, err
	}
	root := storageRoot
	if root != "" {
		root = filepath.Join(storageRoot, fmt.Sprintf("micro-%s-%d-%d", sanitize(strategy), cfg.Fanin, cfg.Fanout))
	}
	mgr, err := kvstore.NewManager(root, nil)
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	exec := workflow.NewExecutor(array.NewVersions(), mgr, lineage.NewCollector())
	run, err := exec.Execute(ctx, spec, plan, map[string]*array.Array{"input": input})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Strategy:     strategy,
		Fanin:        cfg.Fanin,
		Fanout:       cfg.Fanout,
		RunTime:      run.Elapsed,
		LineageBytes: run.LineageBytes(),
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 100))
	size := int64(cfg.Rows) * int64(cfg.Cols)
	cells := make([]uint64, QueryCellCount)
	for i := range cells {
		cells[i] = uint64(rng.Int63n(size))
	}
	qe := query.New(run, exec.Stats(), query.Options{EntireArray: true, Dynamic: false})

	start := time.Now()
	bres, err := qe.Execute(ctx, query.Query{
		Direction: query.Backward, Cells: cells,
		Path: []query.Step{{Node: NodeID}},
	})
	if err != nil {
		return nil, err
	}
	res.BackwardQuery = time.Since(start)
	res.BackwardCells = int(bres.Bitmap.Count())

	start = time.Now()
	fres, err := qe.Execute(ctx, query.Query{
		Direction: query.Forward, Cells: cells,
		Path: []query.Step{{Node: NodeID}},
	})
	if err != nil {
		return nil, err
	}
	res.ForwardQuery = time.Since(start)
	res.ForwardCells = int(fres.Bitmap.Count())
	return res, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case '<', '>', '-':
			out = append(out, 'x')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}
