// Optimizer: the Figure-7 story through the public API. A payload UDF's
// lineage can be stored many ways; the optimizer finds the exact best mix
// for a sample workload under a storage budget, switching from black-box
// (tight budget) to backward-optimized payload lineage to
// both-orientations lineage as the budget grows.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"subzero"
)

// window is a payload UDF: each output cell depends on its radius-1
// neighborhood, recorded as payload lineage (the radius) or full pairs.
type window struct {
	subzero.Meta
}

func newWindow() *window {
	return &window{Meta: subzero.Meta{
		OpName: "window",
		NIn:    1,
		Modes:  []subzero.Mode{subzero.Full, subzero.Pay},
	}}
}

func (w *window) OutShape(in []subzero.Shape) (subzero.Shape, error) { return in[0].Clone(), nil }

func (w *window) Run(rc *subzero.RunCtx, ins []*subzero.Array) (*subzero.Array, error) {
	in := ins[0]
	out, err := subzero.NewArray(w.OpName, in.Shape())
	if err != nil {
		return nil, err
	}
	sp := in.Space()
	var neigh []uint64
	one := make([]uint64, 1)
	for idx := uint64(0); idx < sp.Size(); idx++ {
		neigh = subzero.Neighborhood(sp, sp.Unravel(idx), 1, neigh[:0])
		sum := 0.0
		for _, n := range neigh {
			sum += in.Get(n)
		}
		out.Set(idx, sum/float64(len(neigh)))
		one[0] = idx
		if rc.NeedsPairs() {
			if err := rc.LWrite(one, neigh); err != nil {
				return nil, err
			}
		}
		if rc.NeedsPayload() {
			if err := rc.LWritePayload(one, []byte{1}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func (w *window) MapP(mc *subzero.MapCtx, out uint64, payload []byte, _ int, dst []uint64) []uint64 {
	return subzero.Neighborhood(mc.InSpaces[0], mc.OutCoord(out), int(payload[0]), dst)
}

func main() {
	ctx := context.Background()
	sys, err := subzero.NewSystem()
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	spec := subzero.NewSpec("optimizer-demo")
	spec.Add("scale", subzero.UnaryOp("scale", func(x float64) float64 { return x * 2 }),
		subzero.FromExternal("data"))
	spec.Add("window", newWindow(), subzero.FromNode("scale"))

	data, err := subzero.NewArray("data", subzero.Shape{200, 200})
	if err != nil {
		log.Fatal(err)
	}
	for i := range data.Data() {
		data.Data()[i] = float64(i % 97)
	}

	// Profiling run: materialize the UDF's Full and Pay lineage so the
	// optimizer works from measured volumes, not guesses.
	profile := subzero.Plan{
		"scale":  {subzero.StratMap},
		"window": {subzero.StratFullOne, subzero.StratPayOne},
	}
	run, err := sys.Execute(ctx, spec, profile, map[string]*subzero.Array{"data": data})
	if err != nil {
		log.Fatal(err)
	}

	// The sample workload the user expects to run: mostly backward.
	workload := []subzero.Query{
		subzero.BackwardQuery([]uint64{500, 501, 502},
			subzero.Step{Node: "window"}, subzero.Step{Node: "scale"}),
		subzero.BackwardQuery([]uint64{40000},
			subzero.Step{Node: "window"}),
		subzero.ForwardQuery([]uint64{123},
			subzero.Step{Node: "scale"}, subzero.Step{Node: "window"}),
	}

	fmt.Println("budget       chosen strategies for 'window'   est. disk     est. query cost")
	fmt.Println("-----------  -------------------------------  ------------  ---------------")
	for _, budgetMB := range []float64{0.001, 0.5, 2, 64} {
		report, err := sys.Optimize(ctx, run, workload, subzero.Constraints{
			MaxDiskBytes: subzero.MB(budgetMB),
		})
		if err != nil {
			log.Fatal(err)
		}
		var chosen []string
		for _, s := range report.Plan.Strategies("window") {
			chosen = append(chosen, s.String())
		}
		fmt.Printf("%8.3fMB   %-31s  %10dB   %.4g\n",
			budgetMB, strings.Join(chosen, " + "), report.DiskBytes, report.Objective)
	}
}
