package main

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"monetlite"
	"monetlite/internal/engine"
)

// tracedOut is what the traced run reports.
type tracedOut struct {
	metrics           map[string]metric
	plans             map[string]int
	kernels           []kernelRow
	scaling           map[string]classScaling
	attempted, failed int
}

// classScaling is one query class's parallel scaling.
type classScaling struct {
	P50Par1MS float64 `json:"p50_par1_ms"`
	P50ParNMS float64 `json:"p50_parN_ms"`
	Speedup   float64 `json:"speedup"`
}

// Minimum op counts of the traced run's shorter loops.
const (
	tracedMinOps = 10
	serialMinOps = 5
)

// traced runs the per-layer measurement. The run's time is split over
// three closed loops on the same op sequence — untraced at
// Parallel(nproc), traced (spans plus EXPLAIN ANALYZE profiles) at
// Parallel(nproc), and untraced at Parallel(1) — followed by the kernel
// replays and plan-choice probes.
func (b *bench) traced(d time.Duration, st setupStats) (*tracedOut, error) {
	phase := d / 3

	nq := len(b.w.queries)
	parN, par1 := make([][]float64, nq), make([][]float64, nq)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := b.loop(phase, tracedMinOps, b.runPlain(b.nproc, parN), nil)
	runtime.ReadMemStats(&ms1)

	acc := &layerAcc{self: map[string]float64{}, plans: map[string]int{}}
	run, fold := b.profiledOp(acc)
	prof := b.loop(phase, tracedMinOps, run, fold)
	serial := b.loop(phase, serialMinOps, b.runPlain(1, par1), nil)

	out := &tracedOut{plans: acc.plans, scaling: map[string]classScaling{}}
	for i, q := range b.w.queries {
		one, n := median(par1[i]), median(parN[i])
		out.scaling[q.name] = classScaling{one, n, ratio(one, n)}
	}
	for _, ls := range []loopStats{plain, prof, serial} {
		out.attempted += ls.attempted
		out.failed += ls.failed
	}
	m := map[string]metric{}
	perOp := func(v float64) float64 { return ratio(v, float64(acc.ops)) }
	m["monetlite.plan_ms"] = metric{perOp(acc.planMS), "ms"}
	m["monetlite.run_ms"] = metric{perOp(acc.runMS), "ms"}
	for _, l := range engineLayers {
		m["engine."+l+"_self_ms"] = metric{perOp(acc.self[l]), "ms"}
	}
	m["engine.css_path_ratio"] = metric{perOp(float64(acc.cssOps)), "ratio"}
	m["engine.bytes_per_row"] = metric{ratio(acc.bytes, acc.examined), "B/row"}
	m["engine.rows_examined_per_row_returned"] = metric{ratio(acc.examined, acc.returned), "ratio"}
	m["engine.worker_busy_ratio"] = metric{ratio(acc.busyMS, acc.slotMS), "ratio"}
	m["engine.parallel_speedup"] = metric{ratio(serial.p50(), plain.p50()), "ratio"}
	m["engine.replans_per_op"] = metric{perOp(float64(acc.replans)), "count"}
	m["engine.cold_first_op_ms"] = metric{st.coldMS, "ms"}
	m["dsm.decompose_s"] = metric{st.decomposeS, "s"}
	m["runtime.gc_cycles_per_op"] = metric{float64(ms1.NumGC-ms0.NumGC) / float64(plain.attempted), "count"}
	m["runtime.gc_pause_ms_per_op"] = metric{float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / float64(plain.attempted), "ms"}
	m["costmodel.plan_pred_error_geomean"] = metric{math.Exp(perOp(acc.logPredErr) / float64(nq)), "ratio"}
	m["trace.overhead_ratio"] = metric{ratio(prof.p50(), plain.p50()), "ratio"}

	kr, err := b.replay()
	if err != nil {
		return nil, err
	}
	out.kernels = kr.rows
	out.attempted += kr.attempted
	out.failed += kr.failed
	for k, v := range kr.metrics {
		m[k] = v
	}
	out.metrics = m
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineLayers are the operator families whose EXPLAIN ANALYZE self
// time the traced run attributes.
var engineLayers = []string{"select_css", "select_scan", "project", "pipeline", "join", "groupagg", "orderby"}

// layerOf maps a profile node to its operator family ("" for scans,
// limits and the query sentinel, whose self time is negligible).
// Grouping phases (cluster/aggregate/partials/merge) count as groupagg
// whether they run under a GroupAggregate operator or as the sink of a
// fused pipeline.
func layerOf(op string) string {
	switch {
	case strings.HasPrefix(op, "Select[csstree]"):
		return "select_css"
	case strings.HasPrefix(op, "Select["):
		return "select_scan"
	case op == "Project", strings.HasPrefix(op, "Reconstruct["):
		return "project"
	case strings.HasPrefix(op, "Pipeline["):
		return "pipeline"
	case strings.HasPrefix(op, "Join["):
		return "join"
	case strings.HasPrefix(op, "GroupAggregate["), strings.HasPrefix(op, "AggFeed["),
		strings.HasPrefix(op, "cluster["), strings.HasPrefix(op, "aggregate["),
		strings.HasPrefix(op, "partials["), op == "merge":
		return "groupagg"
	case op == "OrderBy":
		return "orderby"
	}
	return ""
}

// layerAcc accumulates the traced ops' per-layer figures.
type layerAcc struct {
	ops             int
	planMS, runMS   float64
	self            map[string]float64
	cssOps, replans int
	bytes           float64 // profiled operator traffic, read + written
	examined        float64 // base-table rows the access operators touched
	returned        float64 // result rows
	busyMS, slotMS  float64 // worker busy time and worker slots × operator time
	logPredErr      float64 // Σ |ln(actual/predicted)| over queries
	plans           map[string]int
}

// profiledQuery is one query of a traced op, kept until the op's timed
// interval has ended.
type profiledQuery struct {
	plan        *monetlite.QueryPlan
	res         *monetlite.QueryResult
	planD, runD time.Duration
}

// profiledOp returns the traced op — spans around Plan and RunProfiled
// of each query — and the fold that adds its operator profiles, plan
// text and predictions to acc once the op's timed interval has ended.
func (b *bench) profiledOp(acc *layerAcc) (opFunc, func()) {
	pending := make([]profiledQuery, len(b.w.queries))
	out := make([]*monetlite.QueryResult, len(b.w.queries))
	run := func(op int, p params) ([]*monetlite.QueryResult, error) {
		hop := b.tr.begin("op", op, -1)
		defer b.tr.end(hop)
		for i, q := range b.w.queries {
			h := b.tr.begin("monetlite.plan", op, hop)
			t0 := time.Now()
			plan, err := q.build(b.db, p).Parallel(b.nproc).Plan()
			t1 := time.Now()
			b.tr.end(h)
			if err != nil {
				return nil, err
			}
			h = b.tr.begin("monetlite.run", op, hop)
			res, err := plan.RunProfiled(nil)
			t2 := time.Now()
			b.tr.end(h)
			if err != nil {
				return nil, err
			}
			out[i] = res
			pending[i] = profiledQuery{plan, res, t1.Sub(t0), t2.Sub(t1)}
		}
		return out, nil
	}
	fold := func() {
		acc.ops++
		css := false
		for _, q := range pending {
			acc.planMS += float64(q.planD.Nanoseconds()) / 1e6
			acc.runMS += float64(q.runD.Nanoseconds()) / 1e6
			for _, l := range planLabels(q.plan.Explain()) {
				acc.plans[l]++
				css = css || l == "Select[csstree]"
			}
			acc.walk(q.res.Profile.Root, nil)
			acc.returned += float64(q.res.N())
			if pred, act := q.plan.PredictedMillis(), q.res.Profile.TotalMS; pred > 0 && act > 0 {
				acc.logPredErr += math.Abs(math.Log(act / pred))
			}
		}
		if css {
			acc.cssOps++
		}
	}
	return run, fold
}

// walk folds one profile subtree into the accumulator.
func (acc *layerAcc) walk(n, parent *engine.OpStats) {
	switch l := layerOf(n.Op); {
	case l == "pipeline" && strings.Contains(n.Op, "Agg"):
		// A pipeline with a GroupAggregate sink runs the fused feed on
		// its workers, then groups the feed and builds the result
		// outside them: the part of its self time beyond its busiest
		// worker is grouping work.
		feed := min(n.SelfMS, slices.Max(append([]float64{0}, n.WorkerBusyMS...)))
		acc.self["pipeline"] += feed
		acc.self["groupagg"] += n.SelfMS - feed
	case l != "":
		acc.self[l] += n.SelfMS
	}
	if n.Op == "Scan" {
		// Under a CSS-tree select the scan is only the table binding:
		// the tree touches just the rows it returns.
		if parent != nil && parent.Op == "Select[csstree]" {
			acc.examined += float64(parent.OutRows)
		} else {
			acc.examined += float64(n.OutRows)
		}
	}
	acc.bytes += float64(n.BytesRead + n.BytesWritten)
	if len(n.WorkerBusyMS) > 0 {
		for _, ms := range n.WorkerBusyMS {
			acc.busyMS += ms
		}
		acc.slotMS += float64(len(n.WorkerBusyMS)) * n.ActualMS
	}
	if n.Replanned != "" {
		acc.replans++
	}
	for _, k := range n.Kids {
		acc.walk(k, n)
	}
}

// planLabels returns the access-path, pipeline, join and grouping
// labels of an Explain() rendering, e.g. "Select[csstree]",
// "Join[radix min (B=18, P=3)]", "GroupAggregate[radix bits=12]".
func planLabels(explain string) []string {
	var out []string
	for _, line := range strings.Split(explain, "\n") {
		s := strings.TrimLeft(line, " │├└─")
		for _, pre := range []string{"Select[", "Join[", "GroupAggregate[", "Pipeline["} {
			if strings.HasPrefix(s, pre) {
				out = append(out, bracketed(s))
			}
		}
	}
	return out
}

// bracketed returns s up to the bracket closing its first '['.
func bracketed(s string) string {
	depth := 0
	for i, r := range s {
		switch r {
		case '[':
			depth++
		case ']':
			if depth--; depth == 0 {
				return s[:i+1]
			}
		}
	}
	return s
}
