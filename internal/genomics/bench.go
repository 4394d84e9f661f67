package genomics

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/opt"
	"subzero/internal/query"
	"subzero/internal/workflow"
)

// StrategyNames lists the Table-II genomics configurations in paper
// order.
var StrategyNames = []string{
	"BlackBox", "FullOne", "FullMany", "FullForw", "FullBoth",
	"PayOne", "PayMany", "PayBoth",
}

// Plan returns one Table-II genomics configuration. Built-in operators
// always use mapping lineage ("Each operator uses mapping lineage if
// possible, and otherwise stores lineage using the specified strategy",
// §VIII-B); the row names configure the four UDFs.
func Plan(name string) (workflow.Plan, error) {
	plan := workflow.Plan{}
	for _, id := range BuiltinIDs() {
		plan[id] = []lineage.Strategy{lineage.StratMap}
	}
	var udf []lineage.Strategy
	switch name {
	case "BlackBox":
		udf = nil
	case "FullOne":
		udf = []lineage.Strategy{lineage.StratFullOne}
	case "FullMany":
		udf = []lineage.Strategy{lineage.StratFullMany}
	case "FullForw":
		udf = []lineage.Strategy{lineage.StratFullOneFwd}
	case "FullBoth":
		udf = []lineage.Strategy{lineage.StratFullOne, lineage.StratFullOneFwd}
	case "PayOne":
		udf = []lineage.Strategy{lineage.StratPayOne}
	case "PayMany":
		udf = []lineage.Strategy{lineage.StratPayMany}
	case "PayBoth":
		udf = []lineage.Strategy{lineage.StratPayOne, lineage.StratFullOneFwd}
	default:
		return nil, fmt.Errorf("genomics: unknown strategy %q", name)
	}
	for _, id := range UDFIDs {
		if udf != nil {
			plan[id] = udf
		}
	}
	return plan, nil
}

// trainBackPath walks from the extracted training data to the raw
// training matrix.
func trainBackPath() []query.Step {
	return []query.Step{
		{Node: NodeExtractTrain, InputIdx: 0},
		{Node: "tr-norm", InputIdx: 0},
		{Node: "tr-center", InputIdx: 0},
		{Node: "tr-t", InputIdx: 0},
	}
}

// Queries builds the benchmark workload from an executed run: two
// backward and two forward queries (paper §II-B, Figure 6).
func Queries(run *workflow.Run) (map[string]query.Query, error) {
	pred, err := run.Output(NodePredict)
	if err != nil {
		return nil, err
	}
	// BQ0 starts from actual (non-zero) predictions.
	var predCells []uint64
	for i, v := range pred.Data() {
		if v != 0 {
			predCells = append(predCells, uint64(i))
			if len(predCells) == 5 {
				break
			}
		}
	}
	if len(predCells) == 0 {
		return nil, fmt.Errorf("genomics: no predictions produced")
	}
	model, err := run.Output(NodeModel)
	if err != nil {
		return nil, err
	}
	// BQ1 starts from significant model columns.
	var modelCells []uint64
	for i, v := range model.Data() {
		if i != LabelRow && math.Abs(v) > significanceThreshold {
			modelCells = append(modelCells, uint64(i))
			if len(modelCells) == 3 {
				break
			}
		}
	}
	if len(modelCells) == 0 {
		return nil, fmt.Errorf("genomics: model has no significant features")
	}
	// Forward queries start from a block of raw training cells covering
	// the first signal features of the first patients.
	ins, err := run.Inputs("tr-t")
	if err != nil {
		return nil, err
	}
	trainSp := ins[0].Space()
	fwd := grid.Rect{Lo: grid.Coord{0, 0}, Hi: grid.Coord{2, 7}}.Cells(trainSp, nil)

	fq0Path := []query.Step{
		{Node: "tr-t", InputIdx: 0},
		{Node: "tr-center", InputIdx: 0},
		{Node: "tr-norm", InputIdx: 0},
		{Node: NodeExtractTrain, InputIdx: 0},
		{Node: NodeModel, InputIdx: 0},
	}
	return map[string]query.Query{
		"BQ0": {
			Direction: query.Backward,
			Cells:     predCells,
			Path: append([]query.Step{
				{Node: NodePredict, InputIdx: 1},
				{Node: NodeModel, InputIdx: 0},
			}, trainBackPath()...),
		},
		"BQ1": {
			Direction: query.Backward,
			Cells:     modelCells,
			Path: append([]query.Step{
				{Node: NodeModel, InputIdx: 0},
			}, trainBackPath()...),
		},
		"FQ0": {Direction: query.Forward, Cells: fwd, Path: fq0Path},
		"FQ1": {
			Direction: query.Forward,
			Cells:     fwd,
			Path:      append(append([]query.Step{}, fq0Path...), query.Step{Node: NodePredict, InputIdx: 1}),
		},
	}, nil
}

// QueryNames lists the workload in report order.
var QueryNames = []string{"BQ0", "BQ1", "FQ0", "FQ1"}

// StrategyResult is one column of Figure 6: overheads plus static and
// dynamic query costs.
type StrategyResult struct {
	Name          string
	RunTime       time.Duration
	LineageBytes  int64
	BaselineBytes int64
	Static        map[string]time.Duration // query-time optimizer off
	Dynamic       map[string]time.Duration // query-time optimizer on
	QueryCells    map[string]int
}

// RunStrategy executes the workflow under one configuration and measures
// overheads and the query workload with the query-time optimizer off
// (Figure 6(b)) and on (Figure 6(c)).
func RunStrategy(ctx context.Context, name string, cfg GenConfig, storageRoot string) (*StrategyResult, error) {
	plan, err := Plan(name)
	if err != nil {
		return nil, err
	}
	exec, run, data, err := execute(ctx, plan, cfg, storageRoot, "gen-"+name)
	if err != nil {
		return nil, err
	}
	defer exec.Manager().Close()
	res := &StrategyResult{
		Name:          name,
		RunTime:       run.Elapsed,
		LineageBytes:  run.LineageBytes(),
		BaselineBytes: data.Train.MemoryBytes() + data.Test.MemoryBytes(),
		Static:        map[string]time.Duration{},
		Dynamic:       map[string]time.Duration{},
		QueryCells:    map[string]int{},
	}
	queries, err := Queries(run)
	if err != nil {
		return nil, err
	}
	for qname, q := range queries {
		static := query.New(run, exec.Stats(), query.Options{EntireArray: true, Dynamic: false})
		start := time.Now()
		qr, err := static.Execute(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("genomics: %s/%s static: %w", name, qname, err)
		}
		res.Static[qname] = time.Since(start)
		res.QueryCells[qname] = len(qr.Cells())

		dynamic := query.New(run, exec.Stats(), query.Options{EntireArray: true, Dynamic: true})
		start = time.Now()
		if _, err := dynamic.Execute(ctx, q); err != nil {
			return nil, fmt.Errorf("genomics: %s/%s dynamic: %w", name, qname, err)
		}
		res.Dynamic[qname] = time.Since(start)
	}
	return res, nil
}

func execute(ctx context.Context, plan workflow.Plan, cfg GenConfig, storageRoot, tag string) (*workflow.Executor, *workflow.Run, *Data, error) {
	spec, err := NewSpec()
	if err != nil {
		return nil, nil, nil, err
	}
	data, err := Generate(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	root := storageRoot
	if root != "" {
		root = filepath.Join(storageRoot, tag)
	}
	mgr, err := kvstore.NewManager(root, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	exec := workflow.NewExecutor(array.NewVersions(), mgr, lineage.NewCollector())
	run, err := exec.Execute(ctx, spec, plan, map[string]*array.Array{
		"train": data.Train, "test": data.Test,
	})
	if err != nil {
		mgr.Close()
		return nil, nil, nil, err
	}
	return exec, run, data, nil
}

// SweepResult is one bar group of Figure 7: the optimizer's plan under a
// storage budget.
type SweepResult struct {
	Name         string
	BudgetBytes  int64
	RunTime      time.Duration
	LineageBytes int64
	QueryTimes   map[string]time.Duration
	Plan         workflow.Plan
}

// OptimizerSweep reproduces Figure 7: a profiling run measures per-UDF
// lineage volumes, then for each storage budget the optimizer chooses a plan,
// the workflow re-runs under it, and the workload is measured.
func OptimizerSweep(ctx context.Context, cfg GenConfig, budgets []int64, storageRoot string) ([]SweepResult, error) {
	// Profiling run: built-ins Map, UDFs materialize both a Full and a
	// payload store so every encoding can be estimated from measurements.
	profPlan := workflow.Plan{}
	for _, id := range BuiltinIDs() {
		profPlan[id] = []lineage.Strategy{lineage.StratMap}
	}
	for _, id := range UDFIDs {
		profPlan[id] = []lineage.Strategy{lineage.StratFullOne, lineage.StratPayOne}
	}
	exec, profRun, _, err := execute(ctx, profPlan, cfg, storageRoot, "gen-profile")
	if err != nil {
		return nil, err
	}
	defer exec.Manager().Close()
	queries, err := Queries(profRun)
	if err != nil {
		return nil, err
	}
	workload := make([]query.Query, 0, len(queries))
	for _, qn := range QueryNames {
		workload = append(workload, queries[qn])
	}

	var out []SweepResult
	for _, budget := range budgets {
		optimizer := opt.New(profRun, exec.Stats())
		rep, err := optimizer.Choose(ctx, workload, opt.Constraints{MaxDiskBytes: budget})
		if err != nil {
			return nil, fmt.Errorf("genomics: optimize budget %d: %w", budget, err)
		}
		name := fmt.Sprintf("SubZero%d", budget/(1024*1024))
		if budget <= 0 {
			name = "SubZeroUnbounded"
		}
		sr := SweepResult{
			Name:        name,
			BudgetBytes: budget,
			Plan:        rep.Plan,
			QueryTimes:  map[string]time.Duration{},
		}
		exec2, run2, _, err := execute(ctx, rep.Plan, cfg, storageRoot, name)
		if err != nil {
			return nil, fmt.Errorf("genomics: run plan for %s: %w", name, err)
		}
		sr.RunTime = run2.Elapsed
		sr.LineageBytes = run2.LineageBytes()
		qs2, err := Queries(run2)
		if err != nil {
			exec2.Manager().Close()
			return nil, err
		}
		for qname, q := range qs2 {
			qe := query.New(run2, exec2.Stats(), query.DefaultOptions())
			start := time.Now()
			if _, err := qe.Execute(ctx, q); err != nil {
				exec2.Manager().Close()
				return nil, fmt.Errorf("genomics: %s/%s: %w", name, qname, err)
			}
			sr.QueryTimes[qname] = time.Since(start)
		}
		exec2.Manager().Close()
		out = append(out, sr)
	}
	return out, nil
}
