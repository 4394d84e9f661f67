// Package subzero is a fine-grained lineage system for array-oriented
// scientific workflows — a from-scratch Go implementation of the system
// described in "SubZero: A Fine-Grained Lineage System for Scientific
// Databases" (Wu, Madden, Stonebraker; ICDE 2013).
//
// SubZero executes DAGs of operators over multi-dimensional arrays and
// records region lineage: relationships between sets of output cells and
// the sets of input cells that produced them. Operators expose lineage
// through the lwrite API and optional mapping functions; the system stores
// it under one of several encodings (FullOne, FullMany, PayOne, PayMany —
// each backward- or forward-optimized), computes it from coordinates
// (mapping lineage), or re-derives it by re-running operators (black-box
// lineage). An optimizer picks the strategy mix that exactly minimizes
// expected query cost under user storage/runtime budgets, and the query
// executor traces forward and backward lineage queries through the
// workflow, dynamically falling back to re-execution when materialized
// lineage underperforms.
//
// # Quick start
//
//	ctx := context.Background()
//	sys, _ := subzero.NewSystem()              // in-memory lineage stores
//	spec := subzero.NewSpec("pipeline")
//	spec.Add("double", subzero.UnaryOp("double", func(x float64) float64 { return 2 * x }),
//		subzero.FromExternal("src"))
//	src, _ := subzero.NewArray("src", subzero.Shape{4, 4})
//	run, _ := sys.Execute(ctx, spec, subzero.Plan{"double": {subzero.StratMap}},
//		map[string]*subzero.Array{"src": src})
//	res, _ := sys.Query(ctx, run, subzero.BackwardQuery([]uint64{5},
//		subzero.Step{Node: "double"}))
//	fmt.Println(res.Cells())                   // -> [5]
//
// Every blocking entry point takes a leading context.Context; cancelling
// it aborts workflow execution at the next operator boundary and query
// tracing at the next path step, returning the wrapped ctx.Err().
//
// A System is safe for concurrent use. Completed runs are registered
// under durable IDs — sys.Run(id) retrieves one, sys.DropRun(id)
// releases its lineage stores and array versions — and every query or
// optimize call accepts either the *Run or its ID string. QueryBatch
// executes many independent lineage queries over a bounded worker pool
// (see WithParallelism), the serving primitive for concurrent traffic.
//
// Custom operators implement the Operator interface (embed Meta for the
// boilerplate) and any of the BackwardMapper / ForwardMapper /
// PayloadMapper capabilities; see examples/quickstart.
package subzero

import (
	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/lineage"
	"subzero/internal/opt"
	"subzero/internal/query"
	"subzero/internal/workflow"
)

// Core data-model types.
type (
	// Array is a dense multi-dimensional array with named attributes.
	Array = array.Array
	// Shape is the per-dimension extent of an array.
	Shape = grid.Shape
	// Coord addresses one cell of an array.
	Coord = grid.Coord
	// Rect is an axis-aligned box of cells with inclusive bounds.
	Rect = grid.Rect
	// Space converts between coordinates and linear cell indices.
	Space = grid.Space
)

// Workflow types.
type (
	// Operator is the interface workflow operators implement.
	Operator = workflow.Operator
	// BackwardMapper is the optional map_b capability.
	BackwardMapper = workflow.BackwardMapper
	// ForwardMapper is the optional map_f capability.
	ForwardMapper = workflow.ForwardMapper
	// PayloadMapper is the optional map_p capability.
	PayloadMapper = workflow.PayloadMapper
	// Meta supplies the boilerplate half of Operator for embedding.
	Meta = workflow.Meta
	// RunCtx is passed to Operator.Run: cur_modes plus the lwrite API.
	RunCtx = workflow.RunCtx
	// MapCtx gives mapping functions access to array geometry.
	MapCtx = workflow.MapCtx
	// Spec is a workflow specification (an operator DAG).
	Spec = workflow.Spec
	// Node is one operator instance in a Spec.
	Node = workflow.Node
	// Input wires an operator input to a producer or external array.
	Input = workflow.Input
	// Plan assigns lineage strategies to workflow nodes.
	Plan = workflow.Plan
	// Run is one executed workflow instance.
	Run = workflow.Run
)

// Lineage types.
type (
	// Mode is a lineage mode (Blackbox, Full, Map, Pay, Comp).
	Mode = lineage.Mode
	// Strategy is a fully specified storage strategy.
	Strategy = lineage.Strategy
	// RegionPair relates output cells to input cells or a payload.
	RegionPair = lineage.RegionPair
	// OpStats is the statistics collector's per-operator view.
	OpStats = lineage.OpStats
)

// Query types.
type (
	// Query is a forward or backward lineage query.
	Query = query.Query
	// Step is one (operator, input index) element of a query path.
	Step = query.Step
	// QueryOptions toggle the executor's optimizations.
	QueryOptions = query.Options
	// QueryResult is a completed query with per-step diagnostics.
	QueryResult = query.Result
	// Direction distinguishes backward from forward queries.
	Direction = query.Direction
)

// Optimizer types.
type (
	// Constraints are the optimizer's resource limits.
	Constraints = opt.Constraints
	// OptimizeReport explains an optimization outcome.
	OptimizeReport = opt.Report
	// StrategyChoice is one candidate row in an OptimizeReport.
	StrategyChoice = opt.Choice
)

// Lineage modes.
const (
	Blackbox = lineage.Blackbox
	Full     = lineage.Full
	MapMode  = lineage.Map
	Pay      = lineage.Pay
	Comp     = lineage.Comp
)

// Query directions.
const (
	Backward = query.Backward
	Forward  = query.Forward
)

// Named strategies (paper terminology; arrows show orientation).
var (
	StratBlackbox    = lineage.StratBlackbox
	StratMap         = lineage.StratMap
	StratFullOne     = lineage.StratFullOne
	StratFullMany    = lineage.StratFullMany
	StratPayOne      = lineage.StratPayOne
	StratPayMany     = lineage.StratPayMany
	StratCompOne     = lineage.StratCompOne
	StratCompMany    = lineage.StratCompMany
	StratFullOneFwd  = lineage.StratFullOneFwd
	StratFullManyFwd = lineage.StratFullManyFwd
)

// NewSpec creates an empty workflow specification.
func NewSpec(name string) *Spec { return workflow.NewSpec(name) }

// NewArray creates a zero-filled array.
func NewArray(name string, shape Shape, attrs ...string) (*Array, error) {
	return array.New(name, shape, attrs...)
}

// NewSpace builds a coordinate space for a shape.
func NewSpace(shape Shape) *Space { return grid.NewSpace(shape) }

// FromNode wires an operator input to another node's output.
func FromNode(id string) Input { return workflow.FromNode(id) }

// FromExternal wires an operator input to a named source array.
func FromExternal(name string) Input { return workflow.FromExternal(name) }

// BackwardQuery builds a backward lineage query from output cells of the
// first step's node through the given path.
func BackwardQuery(cells []uint64, steps ...Step) Query {
	return Query{Direction: Backward, Cells: cells, Path: steps}
}

// ForwardQuery builds a forward lineage query from input cells of the
// first step's node through the given path.
func ForwardQuery(cells []uint64, steps ...Step) Query {
	return Query{Direction: Forward, Cells: cells, Path: steps}
}

// Neighborhood appends the cells within Chebyshev distance radius of
// center (clipped to the space) — the common lineage pattern of local
// image operators.
func Neighborhood(sp *Space, center Coord, radius int, dst []uint64) []uint64 {
	return grid.Neighborhood(sp, center, radius, dst)
}

// DefaultQueryOptions enables every query optimization.
func DefaultQueryOptions() QueryOptions { return query.DefaultOptions() }
