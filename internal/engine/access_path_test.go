package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"monetlite/internal/core"
	"monetlite/internal/sel"
)

// Cross-checks for the selection access paths: the CSS-tree select
// (sort or bitmap order restoration) and the scan-select must hand the
// operators above them byte-identical rows, and the planner's choice
// between them must be monotone in the window width.

// revenue is the dashboard's measure, price·(1 − discnt).
var revenue = BinExpr{Op: '*', L: ColExpr{Name: "price"},
	R: BinExpr{Op: '-', L: ConstExpr{V: 1}, R: ColExpr{Name: "discnt"}}}

// withAccessPath plans root materializing, replaces the select under
// its sink with a hand-built CSS-tree or scan-select over the same
// predicate, and fuses pipelines when pipe is set — the CSS select
// carries no scan alternative, so fusion cannot take it back.
func withAccessPath(t *testing.T, root Node, css bool, workers int, pipe bool) *PhysicalPlan {
	t.Helper()
	p, err := Plan(root, Config{Opt: core.Options{Parallelism: workers}, NoPipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	var slot *physOp
	switch r := p.root.(type) {
	case *groupAggOp:
		slot = &r.in
	case *projectOp:
		slot = &r.in
	default:
		t.Fatalf("unexpected sink %T", p.root)
	}
	var s *selectScanOp
	switch x := (*slot).(type) {
	case *selectScanOp:
		s = x
	case *selectCSSOp:
		s = x.scan // the priced alternative, never fused away here
	default:
		t.Fatalf("unexpected select %T", x)
	}
	*slot = s
	if css {
		n := s.col.Vec.Len()
		*slot = &selectCSSOp{in: s.in, col: s.col, pred: s.pred.(RangePred), est: s.est,
			cost: cssSelectCost(n, float64(n)*s.est, p.cfg.Model)}
	}
	if pipe {
		p.cfg.NoPipeline = false
		p.root = fusePipelines(p.root, p.cfg)
	}
	if want := pipe && !css; p.Pipelined() != want {
		t.Fatalf("css=%v pipe=%v: Pipelined() = %v\n%s", css, pipe, p.Pipelined(), p.Explain())
	}
	return p
}

// TestAccessPathsByteIdentical runs GroupAggregate and Project sinks
// over both access paths at 0.1–60% selectivity, at workers {1, 2, 4}
// with pipelines on and off. Morsels of 1000 rows put morsel
// boundaries mid-word in the CSS bitmap, so the parallel decode's
// per-morsel ranges are exercised off the 64-bit grid.
func TestAccessPathsByteIdentical(t *testing.T) {
	shrinkMorsels(t, 1000)
	items := itemTable(t, 1<<14+37)
	for _, days := range []int64{3, 25, 250, 750, 1500} { // ≈0.1%, 1%, 10%, 30%, 60%
		win := &SelectNode{Input: &ScanNode{Table: items},
			Pred: RangePred{Col: "date1", Lo: 8700, Hi: 8700 + days - 1}}
		sinks := map[string]Node{
			"agg":     &GroupAggNode{Input: win, Key: "shipmode", Measure: revenue},
			"project": &ProjectNode{Input: win, Cols: []string{"order", "date1", "price", "shipmode"}},
		}
		for _, sink := range []string{"agg", "project"} {
			want, err := withAccessPath(t, sinks[sink], false, 1, false).Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if want.N() == 0 {
				t.Fatalf("%s over %d days selected nothing", sink, days)
			}
			for _, workers := range []int{1, 2, 4} {
				for _, pipe := range []bool{false, true} {
					for _, css := range []bool{false, true} {
						name := fmt.Sprintf("%s/days=%d/workers=%d/pipe=%v/css=%v", sink, days, workers, pipe, css)
						got, err := withAccessPath(t, sinks[sink], css, workers, pipe).Run(nil)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !reflect.DeepEqual(want.Rel, got.Rel) {
							t.Errorf("%s: result differs from serial materializing scan (%d vs %d rows)",
								name, got.N(), want.N())
						}
					}
				}
			}
		}
	}
}

// TestAccessPathFlipsOnceAlongWindowSweep widens a date1 window from
// one day to the whole 2500-day domain under the dashboard's query
// shapes and requires the chosen access path to flip at most once,
// from CSS-tree to scan — the fused-subplan comparison must not
// reintroduce CSS after fusion has won.
func TestAccessPathFlipsOnceAlongWindowSweep(t *testing.T) {
	items := itemTable(t, 1<<18)
	parts := partTable(t, 2000)
	shapes := map[string]func(win Node) Node{
		"select": func(win Node) Node { return win },
		"agg": func(win Node) Node {
			return &GroupAggNode{Input: win, Key: "shipmode", Measure: revenue}
		},
		"join-agg": func(win Node) Node {
			return &OrderByNode{Col: "sum", Desc: true, Input: &GroupAggNode{
				Key: "category", Measure: revenue,
				Input: &JoinNode{LeftCol: "part", RightCol: "id", Right: &ScanNode{Table: parts},
					Left: &SelectNode{Input: win, Pred: EqStringPred{Col: "shipmode", Value: "MAIL"}}}}}
		},
		"project-limit": func(win Node) Node {
			return &LimitNode{N: 20, Input: &ProjectNode{Input: win, Cols: []string{"order", "price"}}}
		},
	}
	for _, name := range []string{"select", "agg", "join-agg", "project-limit"} {
		var path []bool // true = CSS-tree
		for days := int64(1); days <= 2500; days += 25 {
			root := shapes[name](&SelectNode{Input: &ScanNode{Table: items},
				Pred: RangePred{Col: "date1", Lo: 8000, Hi: 8000 + days - 1}})
			p, err := Plan(root, Config{})
			if err != nil {
				t.Fatal(err)
			}
			path = append(path, strings.Contains(p.Explain(), "Select[csstree]"))
		}
		if !path[0] || path[len(path)-1] {
			t.Errorf("%s: narrowest window css=%v, widest css=%v; want CSS-tree then scan", name, path[0], path[len(path)-1])
		}
		flips := 0
		for i := 1; i < len(path); i++ {
			if path[i] != path[i-1] {
				flips++
			}
		}
		if flips > 1 {
			t.Errorf("%s: access path flips %d times along the sweep: %v", name, flips, path)
		}
	}
}

// TestAccessPathKeepsCheaperSubplan: wherever the planner decides
// between the CSS-tree and a fused scan pipeline, it must keep the
// plan with the lower predicted cost — the CSS select plus its unfused
// chain, or the pipeline fused over the scan.
func TestAccessPathKeepsCheaperSubplan(t *testing.T) {
	items := itemTable(t, 1<<18)
	for days := int64(1); days <= 1500; days += 50 {
		win := &SelectNode{Input: &ScanNode{Table: items},
			Pred: RangePred{Col: "date1", Lo: 8000, Hi: 8000 + days - 1}}
		for _, root := range []Node{
			&GroupAggNode{Input: win, Key: "shipmode", Measure: revenue},
			&ProjectNode{Input: win, Cols: []string{"order", "price"}},
		} {
			chosen, err := Plan(root, Config{})
			if err != nil {
				t.Fatal(err)
			}
			css := withAccessPath(t, root, true, 0, true).PredictedMillis()
			fused := withAccessPath(t, root, false, 0, true).PredictedMillis()
			if got, want := chosen.PredictedMillis(), min(css, fused); got > want*(1+1e-9) {
				t.Errorf("%T over %d days: chose a plan predicted at %.3f ms; CSS-tree %.3f ms, fused scan %.3f ms\n%s",
					root, days, got, css, fused, chosen.Explain())
			}
		}
	}
}

// TestCSSBitmapScratchReused: the order-restoring bitmap lives on the
// column between queries, so a warm bitmap-path CSS select allocates
// its k-OID output and bookkeeping, not another n-bit bitmap.
func TestCSSBitmapScratchReused(t *testing.T) {
	items := itemTable(t, 1<<16)
	op := &selectCSSOp{in: &scanOp{t: items}, col: mustColumn(t, items, "date1"),
		pred: RangePred{Col: "date1", Lo: 8000, Hi: 8024}} // ≈1%: the bitmap path
	ctx := &execCtx{opt: core.Serial()}
	run := func() int {
		f, err := op.exec(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return len(f.binds[0].oids)
	}
	k := run() // builds the tree and the bitmap
	if k == 0 || sel.SortRestores(k, items.N) {
		t.Fatalf("k=%d does not exercise the bitmap path", k)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bitmap := uint64(items.N / 8)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= uint64(4*k)+bitmap/2 {
		t.Errorf("warm CSS select allocates %d B per run for %d OIDs (%d B); the %d B bitmap is not reused",
			per, k, 4*k, bitmap)
	}
}
