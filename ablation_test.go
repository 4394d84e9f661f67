// Ablation benchmarks for the design choices called out in DESIGN.md:
// payload form (compact descriptor vs the paper's literal fanin×4 cell
// list), the One/Many encoding crossover in fanout, and the R-tree node
// fan-out.
package subzero_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"subzero/internal/grid"
	"subzero/internal/microbench"
	"subzero/internal/rtree"
)

// BenchmarkAblationPayloadForm compares the two payload layouts of the
// microbenchmark (see internal/microbench: our compact ~21-byte
// descriptor vs the paper's fanin×4-byte cell list) at high fanin, where
// the difference matters.
func BenchmarkAblationPayloadForm(b *testing.B) {
	for _, cells := range []bool{false, true} {
		name := "compact"
		if cells {
			name = "fanin-x4-cells"
		}
		b.Run(name, func(b *testing.B) {
			cfg := microbench.DefaultConfig()
			cfg.Rows, cfg.Cols = 300, 300
			cfg.Fanin, cfg.Fanout = 100, 1
			cfg.PayloadCells = cells
			var bytes int64
			for i := 0; i < b.N; i++ {
				res, err := microbench.Run(context.Background(), cfg, "<-PayOne", "")
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.LineageBytes
			}
			b.ReportMetric(float64(bytes), "lineage-bytes")
		})
	}
}

// BenchmarkAblationEncodingCrossover sweeps fanout for FullOne vs
// FullMany: the per-cell hash entries of FullOne dominate at high fanout,
// the R-tree of FullMany at low fanout (paper §VIII-C's crossover).
func BenchmarkAblationEncodingCrossover(b *testing.B) {
	for _, strat := range []string{"<-FullOne", "<-FullMany"} {
		for _, fanout := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/fanout-%d", strat, fanout), func(b *testing.B) {
				cfg := microbench.DefaultConfig()
				cfg.Rows, cfg.Cols = 300, 300
				cfg.Fanin, cfg.Fanout = 8, fanout
				var bytes int64
				for i := 0; i < b.N; i++ {
					res, err := microbench.Run(context.Background(), cfg, strat, "")
					if err != nil {
						b.Fatal(err)
					}
					bytes = res.LineageBytes
				}
				b.ReportMetric(float64(bytes), "lineage-bytes")
			})
		}
	}
}

// BenchmarkAblationRTreeFanout measures point-query cost across R-tree
// node fan-outs, justifying the default of 16.
func BenchmarkAblationRTreeFanout(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	items := make([]rtree.Item, 20000)
	for i := range items {
		lo := grid.Coord{rng.Intn(1000), rng.Intn(1000)}
		items[i] = rtree.Item{
			Rect: grid.Rect{Lo: lo, Hi: grid.Coord{lo[0] + rng.Intn(5), lo[1] + rng.Intn(5)}},
			ID:   uint64(i),
		}
	}
	for _, fanout := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("fanout-%d", fanout), func(b *testing.B) {
			tr := rtree.NewWithFanout(2, fanout)
			for _, it := range items {
				if err := tr.Insert(it); err != nil {
					b.Fatal(err)
				}
			}
			pt := grid.Coord{500, 500}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.SearchPoint(pt, func(rtree.Item) bool { return true })
			}
		})
	}
}
