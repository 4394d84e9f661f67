package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quantile returns the q-quantile of xs by the exclusive method, the one
// Python's statistics.quantiles uses: the driver that judges this
// benchmark's spreads computes its quartiles that way, so the harness's
// own p25-of-rounds and the -aa report agree with it. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n+1)
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	// Python extrapolates beyond the smallest and largest sample; quartiles
	// of three or more samples never get there, and a tail percentile
	// should not, so the weight is kept within the pair.
	frac := min(max(pos-float64(j), 0), 1)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// p25 is the estimator for every timing taken over rounds of identical
// work: on a shared host interference only ever adds time, so the lower
// quartile sits closer to the undisturbed cost than the median does and
// moves less from run to run.
func p25(xs []float64) float64 { return quantile(xs, 0.25) }

// median is the estimator for counts (bytes, allocations, keys read): one
// pool refill after a collection moves a single round, never the middle.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrShare is the distance between the quartiles as a share of the median.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// tailPercentile returns the highest of the usual percentiles that still has
// at least ten of n samples beyond it; below a hundred samples none does
// and the median stands in.
func tailPercentile(n int) float64 {
	pct := 50.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exactly 0.1
			pct = p
		}
	}
	return pct
}

// span is one timed interval of the traced pass. Start and End are
// nanoseconds since the trace began. A derived span was not timed by the
// harness: only its duration is known (the executor's own Elapsed, a step
// report), so it is laid at its parent's start, after earlier derived
// siblings.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// selfTimes sums, per span name, each span's duration minus the part of it
// that its child spans cover. Children are clipped to the parent and
// overlapping children are counted once, so the self times of one tree add
// up to its root's duration exactly.
func selfTimes(spans []span) map[string]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, end := int64(0), s.Start
		for _, c := range ivs {
			if c.hi <= end {
				continue
			}
			covered += c.hi - max(c.lo, end)
			end = c.hi
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// metricDef declares one metric the program prints.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// benchmarkFile is BENCHMARK.json as far as the harness reads it.
type benchmarkFile struct {
	Workloads []declaredWorkload `json:"workloads"`
	EndToEnd  []declaredMetric   `json:"end_to_end"`
	PerLayer  []declaredMetric   `json:"per_layer"`
}

type declaredWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// checkDeclared compares what BENCHMARK.json declares with what the program
// prints, both ways: every workload and metric on one side must be on the
// other with the same unit and direction, and every end-to-end metric needs
// a bound in (0, 0.25].
func checkDeclared(bf *benchmarkFile, workloads []string, endToEnd, perLayer []metricDef) []string {
	var problems []string
	declared := map[string]bool{}
	for _, w := range bf.Workloads {
		declared[w.Name] = true
	}
	for _, w := range workloads {
		if !declared[w] {
			problems = append(problems, "workload "+w+" is not in BENCHMARK.json")
		}
		delete(declared, w)
	}
	for w := range declared {
		problems = append(problems, "BENCHMARK.json workload "+w+" is not in the program")
	}
	compare := func(kind string, printed []metricDef, decl map[string]metricDef) {
		for _, m := range printed {
			d, ok := decl[m.Name]
			switch {
			case !ok:
				problems = append(problems, kind+" metric "+m.Name+" is printed but not declared")
			case d != m:
				problems = append(problems, fmt.Sprintf("%s metric %s: declared %s/%s, printed %s/%s",
					kind, m.Name, d.Unit, d.Better, m.Unit, m.Better))
			}
			delete(decl, m.Name)
		}
		for name := range decl {
			problems = append(problems, kind+" metric "+name+" is declared but not printed")
		}
	}
	e2e := map[string]metricDef{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = metricDef{m.Name, m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			problems = append(problems, fmt.Sprintf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound))
		}
	}
	compare("end-to-end", endToEnd, e2e)
	layer := map[string]metricDef{}
	for _, m := range bf.PerLayer {
		layer[m.Name] = metricDef{m.Name, m.Unit, m.Better}
	}
	compare("per-layer", perLayer, layer)
	sort.Strings(problems)
	return problems
}
