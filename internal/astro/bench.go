package astro

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/query"
	"subzero/internal/workflow"
)

// StrategyNames lists the Table-II astronomy configurations in paper
// order.
var StrategyNames = []string{"BlackBox", "BlackBoxOpt", "FullMany", "FullOne", "SubZero"}

// Plan returns the strategy plan for one Table-II configuration:
//
//	BlackBox    — every operator stores black-box lineage only.
//	BlackBoxOpt — like BlackBox, but built-ins use mapping lineage.
//	FullOne     — like BlackBoxOpt, but UDFs store backward FullOne.
//	FullMany    — like FullOne with the FullMany encoding.
//	SubZero     — the optimizer's choice: composite lineage (PayOne
//	              payload side) for the cosmic-ray UDFs, payload lineage
//	              for star detection.
func Plan(name string) (workflow.Plan, error) {
	plan := workflow.Plan{}
	mapBuiltins := func() {
		for _, id := range BuiltinIDs() {
			plan[id] = []lineage.Strategy{lineage.StratMap}
		}
	}
	switch name {
	case "BlackBox":
	case "BlackBoxOpt":
		mapBuiltins()
	case "FullOne":
		mapBuiltins()
		for _, id := range UDFIDs {
			plan[id] = []lineage.Strategy{lineage.StratFullOne}
		}
	case "FullMany":
		mapBuiltins()
		for _, id := range UDFIDs {
			plan[id] = []lineage.Strategy{lineage.StratFullMany}
		}
	case "SubZero":
		mapBuiltins()
		plan[NodeCRD1] = []lineage.Strategy{lineage.StratCompOne}
		plan[NodeCRD2] = []lineage.Strategy{lineage.StratCompOne}
		plan[NodeCRRemove] = []lineage.Strategy{lineage.StratCompOne}
		plan[NodeStarDetect] = []lineage.Strategy{lineage.StratPayOne}
	default:
		return nil, fmt.Errorf("astro: unknown strategy %q", name)
	}
	return plan, nil
}

// backPathB1 is the backward path from a composite-image consumer down
// branch 1 to the raw exposure.
func backPathB1() []query.Step {
	return []query.Step{
		{Node: "merge", InputIdx: 0},
		{Node: "b1/norm", InputIdx: 0},
		{Node: "b1/denoise", InputIdx: 0},
		{Node: "b1/clip", InputIdx: 0},
		{Node: "b1/bgsub", InputIdx: 0},
		{Node: "b1/smooth", InputIdx: 0},
		{Node: "b1/gain", InputIdx: 0},
		{Node: "b1/bias", InputIdx: 0},
	}
}

// Queries builds the benchmark's lineage queries from an executed run
// (§VIII-A: five backward queries and one forward query; FQ0-Slow is FQ0
// with the entire-array optimization disabled).
func Queries(run *workflow.Run) (map[string]query.Query, error) {
	starCells, err := largestStar(run)
	if err != nil {
		return nil, err
	}
	crCells, err := maskCells(run, NodeCRD1, 32)
	if err != nil {
		return nil, err
	}
	out, err := run.Output("postsmooth")
	if err != nil {
		return nil, err
	}
	block := centerBlock(out.Space(), 8)

	qs := map[string]query.Query{}
	// BQ0: a detected star traced to the raw exposure.
	qs["BQ0"] = query.Query{
		Direction: query.Backward,
		Cells:     starCells,
		Path: append([]query.Step{
			{Node: NodeStarDetect, InputIdx: 0},
			{Node: "contrast", InputIdx: 0},
			{Node: "postsmooth", InputIdx: 0},
			{Node: NodeCRRemove, InputIdx: 0},
		}, backPathB1()...),
	}
	// BQ1: a region of the cleaned composite traced to exposure 2's
	// normalized image (one step across the merge).
	qs["BQ1"] = query.Query{
		Direction: query.Backward,
		Cells:     block,
		Path: []query.Step{
			{Node: "postsmooth", InputIdx: 0},
			{Node: NodeCRRemove, InputIdx: 0},
			{Node: "merge", InputIdx: 1},
		},
	}
	// BQ2: cosmic-ray mask pixels traced to the raw exposure.
	qs["BQ2"] = query.Query{
		Direction: query.Backward,
		Cells:     crCells,
		Path: []query.Step{
			{Node: NodeCRD1, InputIdx: 0},
			{Node: "b1/norm", InputIdx: 0},
			{Node: "b1/denoise", InputIdx: 0},
			{Node: "b1/clip", InputIdx: 0},
			{Node: "b1/bgsub", InputIdx: 0},
			{Node: "b1/smooth", InputIdx: 0},
			{Node: "b1/gain", InputIdx: 0},
			{Node: "b1/bias", InputIdx: 0},
		},
	}
	// BQ3: a star traced to the cosmic-ray mask (isolate a faulty mask).
	qs["BQ3"] = query.Query{
		Direction: query.Backward,
		Cells:     starCells,
		Path: []query.Step{
			{Node: NodeStarDetect, InputIdx: 0},
			{Node: "contrast", InputIdx: 0},
			{Node: "postsmooth", InputIdx: 0},
			{Node: NodeCRRemove, InputIdx: 1},
		},
	}
	// BQ4: a post-processing region traced into the merge.
	qs["BQ4"] = query.Query{
		Direction: query.Backward,
		Cells:     block,
		Path: []query.Step{
			{Node: "postsmooth", InputIdx: 0},
			{Node: NodeCRRemove, InputIdx: 0},
			{Node: "merge", InputIdx: 0},
		},
	}
	// FQ0: raw pixels traced forward to the star labels; the path crosses
	// branch 1's background-mean — an all-to-all operator — which the
	// entire-array optimization short-circuits.
	img1, err := run.Inputs("b1/bias")
	if err != nil {
		return nil, err
	}
	qs["FQ0"] = query.Query{
		Direction: query.Forward,
		Cells:     centerBlock(img1[0].Space(), 4),
		Path: []query.Step{
			{Node: "b1/bias", InputIdx: 0},
			{Node: "b1/gain", InputIdx: 0},
			{Node: "b1/smooth", InputIdx: 0},
			{Node: "b1/bgmean", InputIdx: 0},
			{Node: "b1/bgsub", InputIdx: 1},
			{Node: "b1/clip", InputIdx: 0},
			{Node: "b1/denoise", InputIdx: 0},
			{Node: "b1/norm", InputIdx: 0},
			{Node: "merge", InputIdx: 0},
			{Node: NodeCRRemove, InputIdx: 0},
			{Node: "postsmooth", InputIdx: 0},
			{Node: "contrast", InputIdx: 0},
			{Node: NodeStarDetect, InputIdx: 0},
		},
	}
	return qs, nil
}

// largestStar returns the cells of the most prominent star label in D's
// output.
func largestStar(run *workflow.Run) ([]uint64, error) {
	out, err := run.Output(NodeStarDetect)
	if err != nil {
		return nil, err
	}
	counts := map[float64][]uint64{}
	data := out.Data()
	for i, v := range data {
		if v > 0 {
			counts[v] = append(counts[v], uint64(i))
		}
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("astro: no stars detected; generator/threshold mismatch")
	}
	var best []uint64
	for _, cells := range counts {
		if len(cells) > len(best) {
			best = cells
		}
	}
	return best, nil
}

// maskCells returns up to limit set cells of a mask output.
func maskCells(run *workflow.Run, nodeID string, limit int) ([]uint64, error) {
	out, err := run.Output(nodeID)
	if err != nil {
		return nil, err
	}
	var cells []uint64
	for i, v := range out.Data() {
		if v > 0 {
			cells = append(cells, uint64(i))
			if len(cells) >= limit {
				break
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("astro: no cosmic rays detected in %s", nodeID)
	}
	return cells, nil
}

// centerBlock returns an n×n block of cells at the array center.
func centerBlock(sp *grid.Space, n int) []uint64 {
	sh := sp.Shape()
	r := grid.Rect{
		Lo: grid.Coord{sh[0]/2 - n/2, sh[1]/2 - n/2},
		Hi: grid.Coord{sh[0]/2 + n/2 - 1, sh[1]/2 + n/2 - 1},
	}
	clipped, _ := r.Clip(sh)
	return clipped.Cells(sp, nil)
}

// StrategyResult is one row of Figure 5: per-strategy overheads and query
// costs.
type StrategyResult struct {
	Name          string
	RunTime       time.Duration
	LineageBytes  int64
	BaselineBytes int64 // the two input exposures
	QueryTimes    map[string]time.Duration
	QueryCells    map[string]int
}

// RunStrategy executes the workflow under one Table-II configuration and
// measures overheads plus all benchmark queries (including FQ0-Slow).
// storageRoot selects file-backed lineage stores; empty means in-memory.
func RunStrategy(ctx context.Context, name string, cfg GenConfig, storageRoot string) (*StrategyResult, error) {
	plan, err := Plan(name)
	if err != nil {
		return nil, err
	}
	spec, err := NewSpec()
	if err != nil {
		return nil, err
	}
	sky, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	root := storageRoot
	if root != "" {
		root = filepath.Join(storageRoot, "astro-"+name)
	}
	mgr, err := kvstore.NewManager(root, nil)
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	exec := workflow.NewExecutor(array.NewVersions(), mgr, lineage.NewCollector())

	run, err := exec.Execute(ctx, spec, plan, map[string]*array.Array{
		"img1": sky.Exposure1, "img2": sky.Exposure2,
	})
	if err != nil {
		return nil, err
	}
	res := &StrategyResult{
		Name:          name,
		RunTime:       run.Elapsed,
		LineageBytes:  run.LineageBytes(),
		BaselineBytes: sky.Exposure1.MemoryBytes() + sky.Exposure2.MemoryBytes(),
		QueryTimes:    map[string]time.Duration{},
		QueryCells:    map[string]int{},
	}
	queries, err := Queries(run)
	if err != nil {
		return nil, err
	}
	for qname, q := range queries {
		opts := query.Options{EntireArray: true, Dynamic: false}
		if err := runQuery(ctx, run, exec, qname, q, opts, res); err != nil {
			return nil, err
		}
	}
	// FQ0-Slow: the forward query without the entire-array optimization.
	slow := query.Options{EntireArray: false, Dynamic: false}
	if err := runQuery(ctx, run, exec, "FQ0Slow", queries["FQ0"], slow, res); err != nil {
		return nil, err
	}
	return res, nil
}

func runQuery(ctx context.Context, run *workflow.Run, exec *workflow.Executor, name string, q query.Query, opts query.Options, res *StrategyResult) error {
	qe := query.New(run, exec.Stats(), opts)
	start := time.Now()
	qr, err := qe.Execute(ctx, q)
	if err != nil {
		return fmt.Errorf("astro: query %s under %s: %w", name, res.Name, err)
	}
	res.QueryTimes[name] = time.Since(start)
	res.QueryCells[name] = len(qr.Cells())
	return nil
}

// QueryNames lists the benchmark queries in report order.
var QueryNames = []string{"BQ0", "BQ1", "BQ2", "BQ3", "BQ4", "FQ0", "FQ0Slow"}
