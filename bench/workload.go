package main

import (
	"fmt"
	"math/rand"
	"sort"

	"subzero"
	"subzero/internal/astro"
	"subzero/internal/genomics"
	"subzero/internal/microbench"
	"subzero/internal/server"
)

// runSpec names one workflow execution: a catalog entry, a named plan and a
// scale. Seeded says whether the run's generator takes the benchmark's
// seed. The astronomy sky does not: a sky holds some 370 lineage pairs at
// these scales, so its byte counts swing by a tenth from one sky to the
// next, which would drown any storage bound. The catalog's default sky is
// kept and the seed draws the queried cells instead.
type runSpec struct {
	workflow string
	plan     string
	scale    float64
	seeded   bool
}

// workload is one set of inputs: the runs captured in every set-up, where
// their lineage lives, how the timed mix reaches the system, and the mix.
type workload struct {
	name      string
	why       string
	runs      []runSpec
	fileStore bool
	// http sends the mix through client.Query to an in-process
	// internal/server on a loopback listener; otherwise it goes to
	// System.QueryWith directly.
	http bool
	// static turns the query-time optimizer off, so the access path of
	// every step is fixed by the plan and not by a race against the
	// re-execution budget.
	static bool
	// setups is the number of set-up repetitions; each yields one sample of
	// setup_s and one of capture_s.
	setups int
	// minRounds is the least number of timed rounds, whatever --seconds says.
	minRounds int
	// mix builds the ordered operations and says how many make one round.
	mix func(e *env, rng *rand.Rand) (ops []*op, perRound int, err error)
}

// syntheticSide is the side of the synthetic operator's square array.
// 400×400 at coverage 10 % gives 16 000 region pairs, twice the lineage
// store's record cache, so lookups drawn from a wide pool stay cold.
const syntheticSide = 400

// syntheticPlans are the microbenchmark strategies, one store each.
var syntheticPlans = map[string]subzero.Plan{
	"<-FullOne":  {microbench.NodeID: {subzero.StratFullOne}},
	"<-FullMany": {microbench.NodeID: {subzero.StratFullMany}},
	"->FullOne":  {microbench.NodeID: {subzero.StratFullOneFwd}},
	"<-PayOne":   {microbench.NodeID: {subzero.StratPayOne}},
	"BlackBox":   {},
}

// newCatalog is the server's shipped catalog plus the paper's synthetic
// operator (§VIII-C), so every workload's runs are catalog executions and
// can be served by internal/server.
func newCatalog() (*server.Catalog, error) {
	cat := server.DefaultCatalog()
	err := cat.Register(&server.Workflow{
		Name:        "synthetic",
		Description: "one synthetic operator over a square array: coverage 10 %, fanin 25, fanout 1; scale is the side",
		Plan: func(name string) (subzero.Plan, error) {
			p, ok := syntheticPlans[name]
			if !ok {
				return nil, fmt.Errorf("synthetic: unknown plan %q", name)
			}
			return p, nil
		},
		Build: func(scale float64, seed int64) (*subzero.Spec, map[string]*subzero.Array, error) {
			side := int(scale)
			cfg := microbench.Config{Rows: side, Cols: side, Coverage: 0.10, Fanin: 25, Fanout: 1, Seed: seed}
			spec := subzero.NewSpec("synthetic")
			spec.Add(microbench.NodeID, microbench.NewSyntheticOp(cfg), subzero.FromExternal("input"))
			in, err := subzero.NewArray("input", subzero.Shape{side, side})
			if err != nil {
				return nil, nil, err
			}
			return spec, map[string]*subzero.Array{"input": in}, nil
		},
	})
	return cat, err
}

var workloads = []*workload{
	{
		name: "serve-astro",
		why:  "astronomy served over loopback HTTP: client, server, wire and trace do half the work, lookups almost none",
		runs: []runSpec{{"astronomy", "SubZero", 0.5, false}},
		http: true, setups: 16, minRounds: 40,
		mix: astroMix,
	},
	{
		name:      "query-genomics",
		why:       "genomics payload lineage on file-backed stores, queried in process: query, lineage and kvstore work, no HTTP",
		runs:      []runSpec{{"genomics", "PayBoth", 30, true}},
		fileStore: true, setups: 8, minRounds: 40,
		mix: func(e *env, _ *rand.Rand) ([]*op, int, error) {
			ops, err := genomicsOps(e.runs[0], "", []string{"BQ0", "BQ1", "FQ0", "FQ1"})
			if err != nil {
				return nil, 0, err
			}
			round := append(repeat(ops[:2], backwardReps), repeat(ops[2:], forwardReps)...)
			return round, len(round), nil
		},
	},
	{
		name: "lookup-micro",
		why:  "one-step lookups on four in-memory synthetic stores: decode, probe and index only; wire or executor changes must not show",
		runs: []runSpec{
			{"synthetic", "<-FullOne", syntheticSide, true},
			{"synthetic", "<-FullMany", syntheticSide, true},
			{"synthetic", "<-PayOne", syntheticSide, true},
			{"synthetic", "->FullOne", syntheticSide, true},
		},
		static: true, setups: 6, minRounds: 48,
		mix: microMix,
	},
	{
		name: "capture",
		why:  "the write side: five plans captured to file-backed stores every round, then read back, so encode and lookup cost show together",
		runs: []runSpec{
			{"genomics", "FullOne", 5, true},
			{"genomics", "FullMany", 5, true},
			{"genomics", "PayBoth", 5, true},
			{"astronomy", "SubZero", 0.25, false},
			{"astronomy", "FullOne", 0.25, false},
		},
		fileStore: true, static: true, setups: 10, minRounds: 40,
		mix: func(e *env, _ *rand.Rand) ([]*op, int, error) {
			var backward []*op
			for _, run := range e.runs[:3] {
				ops, err := genomicsOps(run, "genomics/", []string{"BQ0", "BQ1"})
				if err != nil {
					return nil, 0, err
				}
				backward = append(backward, ops...)
			}
			forward, err := genomicsOps(e.runs[2], "genomics/", []string{"FQ0", "FQ1"})
			if err != nil {
				return nil, 0, err
			}
			round := append(repeat(backward, backwardReps), repeat(forward, forwardReps)...)
			return round, len(round), nil
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// op is one lineage query of the mix, with the answer it must return.
type op struct {
	run  *subzero.Run
	name string
	q    subzero.Query
	// oracle ops are checked against black-box re-execution of the same
	// workflow and seed. Ops with the same non-empty group ask the same
	// question of different plans, so their answers must be equal and one
	// oracle answer serves them all.
	oracle bool
	group  string
	want   fingerprint
}

// A genomics round repeats its backward queries a few times and its forward
// queries many times: a forward query costs a hundredth of a backward one,
// and a round's mean over a handful of 50 µs calls, each running on caches
// the 10 ms call before it emptied, spread by 15 % from run to run.
const (
	backwardReps = 5
	forwardReps  = 40
)

func repeat(ops []*op, n int) []*op {
	out := make([]*op, 0, n*len(ops))
	for i := 0; i < n; i++ {
		out = append(out, ops...)
	}
	return out
}

// genomicsOps are the named queries of the paper's genomics benchmark
// against one run, all checked against the oracle. A group prefix ties the
// same query on different plans together.
func genomicsOps(run *subzero.Run, groupPrefix string, names []string) ([]*op, error) {
	qs, err := genomics.Queries(run)
	if err != nil {
		return nil, err
	}
	ops := make([]*op, len(names))
	for i, name := range names {
		ops[i] = &op{run: run, name: name, q: qs[name], oracle: true}
		if groupPrefix != "" {
			ops[i].group = groupPrefix + name
		}
	}
	return ops, nil
}

// astroMix keeps the paths of the paper's astronomy queries (BQ0–BQ4, FQ0)
// and draws their starting cells from the seed: a detected star, a stretch
// of cosmic-ray mask pixels, blocks of the composite and of the raw
// exposure. One round asks about every detected star twice, in an order the
// seed shuffles, so that which stars a seed happens to draw (they span 1 to
// 21 pixels) does not move the round's cost. Only the first instance is
// checked against the oracle, because black-box re-execution of one
// astronomy query takes up to a second.
func astroMix(e *env, rng *rand.Rand) ([]*op, int, error) {
	run := e.runs[0]
	base, err := astro.Queries(run)
	if err != nil {
		return nil, 0, err
	}
	labels, err := run.Output(astro.NodeStarDetect)
	if err != nil {
		return nil, 0, err
	}
	byStar := map[float64][]uint64{}
	for i, v := range labels.Data() {
		if v > 0 {
			byStar[v] = append(byStar[v], uint64(i))
		}
	}
	var stars [][]uint64
	for _, cells := range byStar {
		stars = append(stars, cells)
	}
	sort.Slice(stars, func(i, j int) bool { return stars[i][0] < stars[j][0] })
	mask, err := run.Output(astro.NodeCRD1)
	if err != nil {
		return nil, 0, err
	}
	var rays []uint64
	for i, v := range mask.Data() {
		if v > 0 {
			rays = append(rays, uint64(i))
		}
	}
	const rayCells = 32
	if len(stars) == 0 || len(rays) < rayCells {
		return nil, 0, fmt.Errorf("astronomy run has %d stars and %d cosmic-ray pixels", len(stars), len(rays))
	}
	composite, err := run.Output("postsmooth")
	if err != nil {
		return nil, 0, err
	}
	block := func(sp *subzero.Space, n int) []uint64 {
		sh := sp.Shape()
		r0, c0 := rng.Intn(sh[0]-n), rng.Intn(sh[1]-n)
		return subzero.Rect{Lo: subzero.Coord{r0, c0}, Hi: subzero.Coord{r0 + n - 1, c0 + n - 1}}.Cells(sp, nil)
	}
	order := rng.Perm(len(stars))
	var ops []*op
	for i := 0; i < 2*len(stars); i++ {
		star := stars[order[i%len(stars)]]
		at := rng.Intn(len(rays) - rayCells + 1)
		region := block(composite.Space(), 8)
		cells := map[string][]uint64{
			"BQ0": star, "BQ1": region, "BQ2": rays[at : at+rayCells], "BQ3": star, "BQ4": region,
			"FQ0": block(composite.Space(), 4), // the raw exposure has the composite's shape
		}
		for _, name := range []string{"BQ0", "BQ1", "BQ2", "BQ3", "BQ4", "FQ0"} {
			q := base[name]
			q.Cells = cells[name]
			ops = append(ops, &op{run: run, name: name, q: q, oracle: i == 0})
		}
	}
	return ops, len(ops), nil
}

// Microbenchmark sizing: a pool of cell sets wide enough that the lookups
// of one pass over it touch more records than a store's record cache holds,
// visited round-robin, a slice of the pool per round.
const (
	microPool     = 256
	microPerRound = 16
	microCells    = microbench.QueryCellCount
)

// microMix asks every pool entry of every store in its matched direction:
// backward of the three backward-optimised stores, whose answers must
// agree, forward of the forward-optimised one. Two entries are checked
// against the oracle (a black-box answer costs a quarter of a second).
func microMix(e *env, rng *rand.Rand) ([]*op, int, error) {
	step := subzero.Step{Node: microbench.NodeID}
	size := int64(syntheticSide * syntheticSide)
	var ops []*op
	for i := 0; i < microPool; i++ {
		cells := make([]uint64, microCells)
		for j := range cells {
			cells[j] = uint64(rng.Int63n(size))
		}
		for r, run := range e.runs {
			o := &op{run: run, oracle: i < 2}
			if e.w.runs[r].plan == "->FullOne" {
				o.name, o.q, o.group = "FQ", subzero.ForwardQuery(cells, step), fmt.Sprintf("f/%d", i)
			} else {
				o.name, o.q, o.group = "BQ", subzero.BackwardQuery(cells, step), fmt.Sprintf("b/%d", i)
			}
			ops = append(ops, o)
		}
	}
	return ops, microPerRound * len(e.runs), nil
}
