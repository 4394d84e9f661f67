package opt

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"subzero/internal/lineage"
)

// instance is a strategy-selection problem given directly by its prices,
// without a workflow behind it.
type instance struct {
	cons   Constraints
	cands  [][]Choice // per node, in node order
	pB, pF []float64
	forced [][]lineage.Strategy
}

// byteSource hands out small integers from fuzz bytes; once the bytes run
// out every draw is 0.
type byteSource []byte

func (s *byteSource) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	v := int((*s)[0]) % n
	*s = (*s)[1:]
	return v
}

var allStrategies = []lineage.Strategy{
	lineage.StratBlackbox, lineage.StratMap,
	lineage.StratFullOne, lineage.StratFullMany, lineage.StratFullOneFwd, lineage.StratFullManyFwd,
	lineage.StratPayOne, lineage.StratPayMany, lineage.StratCompOne, lineage.StratCompMany,
}

// decodeInstance builds an instance of at most 4 nodes × 5 candidates.
// Prices come from small ranges so exact ties are common; each node's
// queries are backward-only, forward-only, both or none; budgets may be
// unbounded, loose or infeasible.
func decodeInstance(data []byte) instance {
	src := byteSource(data)
	var in instance
	for range 1 + src.next(4) {
		off := src.next(len(allStrategies))
		var cands []Choice
		var forced []lineage.Strategy
		for j := range 1 + src.next(5) {
			c := Choice{
				Strategy:  allStrategies[(off+j)%len(allStrategies)],
				DiskBytes: int64(src.next(8)) * 100,
				Runtime:   time.Duration(src.next(8)) * time.Millisecond,
				QBackward: time.Duration(src.next(16)) * time.Millisecond,
				QForward:  time.Duration(src.next(16)) * time.Millisecond,
			}
			cands = append(cands, c)
			if src.next(6) == 0 {
				forced = append(forced, c.Strategy)
			}
		}
		pB, pF := float64(1+src.next(4))/4, float64(1+src.next(4))/4
		switch src.next(4) {
		case 0:
			pF = 0
		case 1:
			pB = 0
		case 2:
			pB, pF = 0, 0
		}
		in.cands = append(in.cands, cands)
		in.forced = append(in.forced, forced)
		in.pB = append(in.pB, pB)
		in.pF = append(in.pF, pF)
	}
	if src.next(3) > 0 {
		in.cons.MaxDiskBytes = int64(src.next(64)) * 37
	}
	if src.next(3) > 0 {
		in.cons.MaxRuntime = time.Duration(src.next(64)) * 300 * time.Microsecond
	}
	in.cons.Beta = []float64{0, 0.5, 3}[src.next(3)]
	return in
}

// solveFrontier runs the frontier search over the instance's nodes, named
// n0, n1, … so that sorted order is node order.
func solveFrontier(in instance) (*Report, error) {
	f := newFrontier(in.cons)
	nodes := make([]string, len(in.cands))
	perNode := make(map[string][]Choice, len(in.cands))
	for i, cands := range in.cands {
		nodes[i] = fmt.Sprintf("n%d", i)
		perNode[nodes[i]] = append([]Choice(nil), cands...)
		if err := f.add(nodes[i], perNode[nodes[i]], in.pB[i], in.pF[i], in.forced[i]); err != nil {
			return nil, err
		}
	}
	return f.report(nodes, perNode), nil
}

// selectionCost prices one node's selection (bit j = candidate j) the
// way the paper's program does, independently of frontier.price.
func selectionCost(cands []Choice, set int, pB, pF float64, beta float64) (disk int64, run time.Duration, obj float64) {
	if beta == 0 {
		beta = 1
	}
	var qB, qF time.Duration = math.MaxInt64, math.MaxInt64
	for j, c := range cands {
		if set&(1<<j) == 0 {
			continue
		}
		disk += c.DiskBytes
		run += c.Runtime
		obj += epsTiebreak * (float64(c.DiskBytes)/mb + beta*c.Runtime.Seconds())
		qB, qF = min(qB, c.QBackward), min(qF, c.QForward)
	}
	return disk, run, obj + pB*qB.Seconds() + pF*qF.Seconds()
}

// bruteForce enumerates every selection of every node — each non-empty
// subset of its candidates that contains the forced ones — and returns
// the minimum objective among those within budget.
func bruteForce(in instance) (best float64, feasible bool) {
	best = math.Inf(1)
	var walk func(i int, disk int64, run time.Duration, obj float64)
	walk = func(i int, disk int64, run time.Duration, obj float64) {
		if in.cons.MaxDiskBytes > 0 && disk > in.cons.MaxDiskBytes || in.cons.MaxRuntime > 0 && run > in.cons.MaxRuntime {
			return
		}
		if i == len(in.cands) {
			best, feasible = min(best, obj), true
			return
		}
		cands := in.cands[i]
	subsets:
		for set := 1; set < 1<<len(cands); set++ {
			for j, c := range cands {
				for _, f := range in.forced[i] {
					if c.Strategy == f && set&(1<<j) == 0 {
						continue subsets
					}
				}
			}
			d, r, o := selectionCost(cands, set, in.pB[i], in.pF[i], in.cons.Beta)
			walk(i+1, disk+d, run+r, obj+o)
		}
	}
	walk(0, 0, 0, 0)
	return best, feasible
}

func relEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// checkAgainstBruteForce asserts the frontier agrees with exhaustive
// enumeration on feasibility and the minimum objective, that the plan it
// reports is the one its totals describe, and that it is deterministic.
func checkAgainstBruteForce(t *testing.T, in instance) {
	t.Helper()
	want, feasible := bruteForce(in)
	rep, err := solveFrontier(in)
	if !feasible {
		if err == nil || !strings.Contains(err.Error(), "infeasible") {
			t.Fatalf("brute force finds no feasible plan, frontier returned %v (instance %+v)", err, in)
		}
		return
	}
	if err != nil {
		t.Fatalf("frontier: %v, brute force optimum %g (instance %+v)", err, want, in)
	}
	if !relEqual(rep.Objective, want) {
		t.Fatalf("frontier objective %.17g, brute force %.17g (instance %+v)", rep.Objective, want, in)
	}

	var disk int64
	var run time.Duration
	var obj float64
	for i := range in.cands {
		choices := rep.PerNode[fmt.Sprintf("n%d", i)]
		set := 0
		for j, c := range choices {
			if c.Chosen {
				set |= 1 << j
			}
		}
		for _, f := range in.forced[i] {
			for j, c := range choices {
				if c.Strategy == f && set&(1<<j) == 0 {
					t.Fatalf("node n%d: forced %s not chosen", i, f)
				}
			}
		}
		d, r, o := selectionCost(choices, set, in.pB[i], in.pF[i], in.cons.Beta)
		disk, run, obj = disk+d, run+r, obj+o
	}
	if disk != rep.DiskBytes || run != rep.Runtime || !relEqual(obj, rep.Objective) {
		t.Fatalf("chosen strategies total (%d B, %v, %g), report says (%d B, %v, %g)",
			disk, run, obj, rep.DiskBytes, rep.Runtime, rep.Objective)
	}
	if in.cons.MaxDiskBytes > 0 && disk > in.cons.MaxDiskBytes || in.cons.MaxRuntime > 0 && run > in.cons.MaxRuntime {
		t.Fatalf("plan (%d B, %v) breaks constraints %+v", disk, run, in.cons)
	}

	again, err := solveFrontier(in)
	if err != nil || !reflect.DeepEqual(rep, again) {
		t.Fatalf("two solves differ: %+v vs %+v (%v)", rep, again, err)
	}
}

func TestFrontierMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	buf := make([]byte, 160)
	infeasible := 0
	for trial := 0; trial < 2000; trial++ {
		rng.Read(buf)
		in := decodeInstance(buf)
		if _, ok := bruteForce(in); !ok {
			infeasible++
		}
		checkAgainstBruteForce(t, in)
	}
	if infeasible == 0 {
		t.Fatal("no infeasible instance generated")
	}
}

func FuzzFrontierMatchesBruteForce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 4, 1, 2, 3, 4, 5, 1, 7, 7, 0, 1, 2})
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		seed := make([]byte, 128)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstBruteForce(t, decodeInstance(data))
	})
}
