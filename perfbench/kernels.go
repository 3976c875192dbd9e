package main

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"monetlite"
	"monetlite/internal/agg"
	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/dsm"
	"monetlite/internal/hashtab"
	"monetlite/internal/sel"
)

// hostFixture is the committed calibrated machine profile that kernel
// times are also priced on, next to the planner's default (origin2k).
// It is read only.
const hostFixture = "internal/calibrate/testdata/host-fixture.json"

// kernelRow is one replayed kernel beside the paper's cost formula.
type kernelRow struct {
	Kernel   string  `json:"kernel"`
	Unit     string  `json:"unit"`
	Measured float64 `json:"measured"`
	// Units is the rows or tuples one timed call processes (omitted
	// for ratios).
	Units        int     `json:"units,omitempty"`
	Formula      string  `json:"formula,omitempty"`
	PredOrigin2k float64 `json:"pred_origin2k,omitempty"`
	PredHost     float64 `json:"pred_host,omitempty"`
}

// kernelMetrics are the per-layer kernel metrics every traced run
// reports. A layer the workload's plans never enter reports 0.
var kernelMetrics = []struct{ name, unit string }{
	{"dsm.select_range_ns_per_row", "ns/row"},
	{"dsm.select_code_ns_per_row", "ns/row"},
	{"dsm.gather_ns_per_row", "ns/row"},
	{"dsm.scan_gb_s.par1", "GB/s"},
	{"dsm.scan_gb_s.parN", "GB/s"},
	{"sel.css_build_ms", "ms"},
	{"sel.css_range_ns", "ns"},
	{"sel.css_vs_scan_ratio", "ratio"},
	{"core.radix_cluster_ns_per_tuple", "ns/tuple"},
	{"core.radix_join_ns_per_tuple", "ns/tuple"},
	{"core.cluster_kv_ns_per_tuple", "ns/tuple"},
	{"agg.hash_group_ns_per_row", "ns/row"},
	{"agg.radix_group_ns_per_row", "ns/row"},
	{"agg.hash_vs_radix_ratio", "ratio"},
	{"hashtab.build_ns_per_tuple", "ns/tuple"},
	{"hashtab.probe_ns_per_tuple", "ns/tuple"},
}

// predictedKernels are the replayed kernels that have a paper formula;
// each reports costmodel.kernel_pred_error.<kernel>, the factor
// max(measured/predicted, predicted/measured) on the host fixture.
var predictedKernels = []string{"select_range", "select_code", "gather", "radix_cluster", "radix_join", "cluster_kv", "hashtab_probe"}

type replayOut struct {
	rows    []kernelRow
	metrics map[string]metric
	// attempted and failed count the checked probe runs.
	attempted, failed int
}

// replayer times kernels and prices them on both machine profiles.
type replayer struct {
	origin, host monetlite.CostModel
	out          replayOut
}

// record stores one kernel time as metric name (when not "") and as a
// kernel row; pred, when non-nil, gives the model's ns per unit.
func (r *replayer) record(kernel, name string, ns float64, units int, unit, formula string, pred func(m monetlite.CostModel) float64) {
	row := kernelRow{Kernel: kernel, Unit: unit, Measured: ns, Units: units, Formula: formula}
	if pred != nil {
		row.PredOrigin2k, row.PredHost = pred(r.origin), pred(r.host)
		if row.PredHost > 0 && ns > 0 {
			r.out.metrics["costmodel.kernel_pred_error."+kernel] = metric{math.Max(ns/row.PredHost, row.PredHost/ns), "ratio"}
		}
	}
	r.out.rows = append(r.out.rows, row)
	if name != "" {
		r.out.metrics[name] = metric{ns, r.out.metrics[name].Unit}
	}
}

// timeNS returns the median wall time of reps calls of f, in ns, after
// a collection so that earlier garbage does not land in the interval.
func timeNS(reps int, f func()) float64 {
	runtime.GC()
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ts)
}

// replay runs the kernels on the workload's path on its own columns,
// at the parameters and radix bits its plans use, and the plan-choice
// probes.
func (b *bench) replay() (replayOut, error) {
	host, err := monetlite.LoadMachine(hostFixture)
	if err != nil {
		return replayOut{}, fmt.Errorf("kernel predictions: %w", err)
	}
	r := &replayer{
		origin: monetlite.NewCostModel(monetlite.Origin2000()),
		host:   monetlite.NewCostModel(host),
		out:    replayOut{metrics: map[string]metric{}},
	}
	for _, k := range kernelMetrics {
		r.out.metrics[k.name] = metric{0, k.unit}
	}
	for _, k := range predictedKernels {
		r.out.metrics["costmodel.kernel_pred_error."+k] = metric{0, "ratio"}
	}
	h := b.tr.begin("kernels", -1, -1)
	defer b.tr.end(h)
	switch b.w.name {
	case "point-lookup":
		err = b.replayLookup(r)
	case "dashboard":
		err = b.replayDashboard(r)
	case "warehouse":
		err = b.replayWarehouse(r)
	}
	return r.out, err
}

func column(t *monetlite.Table, name string) (*dsm.Column, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, fmt.Errorf("kernel replay: %w", err)
	}
	return c, nil
}

// scanIter prices one sequential access at stride s bytes (the §2
// stride-scan model).
func scanIter(s int) func(m monetlite.CostModel) float64 {
	return func(m monetlite.CostModel) float64 { return m.ScanIterNanos(max(s, 1)) }
}

// replayLookup: the CSS-tree over order at the op's own ranges, the
// positional gather of the projected rows, and the scan the planner
// declined.
func (b *bench) replayLookup(r *replayer) error {
	items := b.db.items
	price, err := column(items, "price")
	if err != nil {
		return err
	}
	order, err := column(items, "order")
	if err != nil {
		return err
	}
	n := items.N
	var tree *sel.CSSTree
	r.record("css_build", "sel.css_build_ms",
		timeNS(3, func() { tree = sel.BuildCSSTree(nil, sel.NewColumn(b.ds.order)) })/1e6,
		n, "ms", "", nil)

	const lookups = 2000
	src := &rng{state: 0x3c6ef372fe94f82b}
	ks := make([]int32, lookups)
	for i := range ks {
		ks[i] = int32(1000 + src.intn(n-lookupWidth+1))
	}
	cssNS := timeNS(5, func() {
		for _, k := range ks {
			oids := tree.RangeSelect(nil, k, k+lookupWidth-1)
			slices.Sort(oids)
		}
	}) / lookups
	r.record("css_range", "sel.css_range_ns", cssNS, lookupWidth, "ns", "", nil)

	dst := make([]int32, 0, n)
	k := int64(ks[0])
	scanNS := timeNS(5, func() { dst = dsm.SelectRangePos(order, k, k+lookupWidth-1, 0, n, dst[:0]) })
	r.record("css_vs_scan", "sel.css_vs_scan_ratio", cssNS/scanNS, 0, "ratio", "", nil)

	pos := make([]int32, 0, lookups*lookupWidth)
	for _, k := range ks {
		for i := int32(0); i < lookupWidth; i++ {
			pos = append(pos, k-1000+i)
		}
	}
	out := make([]float64, 0, len(pos))
	gatherNS := timeNS(5, func() { out = dsm.GatherFloatsPos(price, pos, out[:0]) }) / float64(len(pos))
	r.record("gather", "dsm.gather_ns_per_row", gatherNS, len(pos), "ns/row",
		"ScanIterNanos(8·N/k)", scanIter(8*n/lookupWidth))
	return nil
}

// replayDashboard: the scan-select, code-select and gather kernels and
// the scan bandwidth at 1 and nproc workers over every pool window; the
// CSS tree over date1 at the windows where the planner chose it; the
// in-cache hash grouping of Q1's feed; the hash build and probe of Q3's
// join.
func (b *bench) replayDashboard(r *replayer) error {
	items := b.db.items
	cols := map[string]*dsm.Column{}
	for _, name := range []string{"date1", "shipmode", "price", "discnt"} {
		c, err := column(items, name)
		if err != nil {
			return err
		}
		cols[name] = c
	}
	date1, ship, price, discnt := cols["date1"], cols["shipmode"], cols["price"], cols["discnt"]
	n := items.N
	width := date1.Width()

	var tree *sel.CSSTree
	r.record("css_build", "sel.css_build_ms",
		timeNS(3, func() { tree = sel.BuildCSSTree(nil, sel.NewColumn(b.ds.date1)) })/1e6,
		n, "ms", "", nil)

	build := monetlite.NewPairs(partRows)
	for i := range build.BUNs {
		build.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(i)}
	}
	var ht *hashtab.Table
	buildNS := timeNS(7, func() {
		ht = hashtab.New(partRows, hashtab.Identity)
		ht.Build(nil, build)
	}) / partRows
	r.record("hashtab_build", "hashtab.build_ns_per_tuple", buildNS, partRows, "ns/tuple", "", nil)

	var rangeNS, codeNS, gatherNS, gb1, gbN, hashNS, probeNS, cssNS, cssRatio []float64
	var sumK, sumProbe, sumCSSK int
	pos := make([]int32, 0, n)
	modePos := make([]int32, 0, n)
	fs := make([]float64, 0, n)
	for _, p := range b.src.pool {
		t := timeNS(3, func() { pos = dsm.SelectRangePos(date1, p.lo, p.hi, 0, n, pos[:0]) })
		rangeNS = append(rangeNS, t/float64(n))
		k := len(pos)
		sumK += k
		code, ok := ship.Enc.Code(p.mode)
		if !ok {
			return fmt.Errorf("kernel replay: shipmode %q not in dictionary", p.mode)
		}
		codeNS = append(codeNS, timeNS(3, func() { modePos = dsm.SelectCodePos(ship, code, 0, n, modePos[:0]) })/float64(n))
		if k > 0 {
			gatherNS = append(gatherNS, timeNS(3, func() { fs = dsm.GatherFloatsPos(price, pos, fs[:0]) })/float64(k))
		}
		bytes := float64(n * width)
		for _, w := range []int{1, b.nproc} {
			var serr error
			t := timeNS(3, func() {
				_, serr = items.SelectRangeOpts(nil, "date1", p.lo, p.hi, monetlite.Options{Parallelism: w})
			})
			if serr != nil {
				return fmt.Errorf("kernel replay: %w", serr)
			}
			if w == 1 {
				gb1 = append(gb1, bytes/t)
			} else {
				gbN = append(gbN, bytes/t)
			}
		}

		// Q1's grouping feed: shipmode code and revenue of each row in
		// the window.
		keys := dsm.AppendCodesPos(nil, ship, pos)
		prices := dsm.AppendFloatsPos(nil, price, pos)
		discs := dsm.AppendFloatsPos(nil, discnt, pos)
		for i := range prices {
			prices[i] *= 1 - discs[i]
		}
		if k > 0 {
			var gerr error
			t := timeNS(3, func() { _, gerr = agg.HashGroup(nil, bat.NewI64(keys), bat.NewF64(prices)) })
			if gerr != nil {
				return fmt.Errorf("kernel replay: %w", gerr)
			}
			hashNS = append(hashNS, t/float64(k))
		}

		// Q3's probe side: the part key of each window row of the mode.
		var probe []uint32
		for _, i := range dsm.FilterCodePos(ship, code, slices.Clone(pos)) {
			probe = append(probe, uint32(b.ds.part[i]))
		}
		if len(probe) > 0 {
			hits := 0
			t := timeNS(3, func() {
				for _, key := range probe {
					ht.Probe(nil, build, key, func(int32) { hits++ })
				}
			})
			probeNS = append(probeNS, t/float64(len(probe)))
			sumProbe += len(probe)
		}

		plan, err := q1.build(b.db, p).Parallel(b.nproc).Plan()
		if err != nil {
			return err
		}
		if strings.Contains(plan.Explain(), "Select[csstree]") {
			css := timeNS(3, func() {
				oids := tree.RangeSelect(nil, int32(p.lo), int32(p.hi))
				slices.Sort(oids)
			})
			cssNS = append(cssNS, css)
			sumCSSK += k
			cssRatio = append(cssRatio, css/(rangeNS[len(rangeNS)-1]*float64(n)))
		}
	}
	pool := len(b.src.pool)
	avgK := sumK / pool
	r.record("select_range", "dsm.select_range_ns_per_row", median(rangeNS), n, "ns/row",
		"ScanIterNanos(width)", scanIter(width))
	r.record("select_code", "dsm.select_code_ns_per_row", median(codeNS), n, "ns/row",
		"ScanIterNanos(1)", scanIter(ship.Width()))
	r.record("gather", "dsm.gather_ns_per_row", median(gatherNS), avgK, "ns/row",
		"ScanIterNanos(8·N/k)", scanIter(8*n/max(avgK, 1)))
	r.record("scan_par1", "dsm.scan_gb_s.par1", median(gb1), n, "GB/s", "", nil)
	r.record("scan_parN", "dsm.scan_gb_s.parN", median(gbN), n, "GB/s", "", nil)
	r.record("hash_group", "agg.hash_group_ns_per_row", median(hashNS), avgK, "ns/row", "", nil)
	r.record("hashtab_probe", "hashtab.probe_ns_per_tuple", median(probeNS), sumProbe/pool, "ns/tuple",
		"ThNanos(0,|part|)/|part|", func(m monetlite.CostModel) float64 { return m.ThNanos(0, partRows) / partRows })
	r.record("css_range", "sel.css_range_ns", median(cssNS), sumCSSK/max(len(cssNS), 1), "ns", "", nil)
	r.record("css_vs_scan", "sel.css_vs_scan_ratio", median(cssRatio), 0, "ratio", "", nil)
	return nil
}

var (
	joinPlanRE = regexp.MustCompile(`Join\[(\w+)[^(\]]*\(B=(\d+), P=(\d+)\)\]`)
	radixAggRE = regexp.MustCompile(`GroupAggregate\[radix bits=(\d+)\].*passes=(\d+)`)
)

// explainNums matches re against a plan rendering and returns its
// numeric groups in order and its first group as text; ok is false when
// the plan has no such operator.
func explainNums(re *regexp.Regexp, explain string) (nums []int, first string, ok bool) {
	m := re.FindStringSubmatch(explain)
	if m == nil {
		return nil, "", false
	}
	for _, v := range m[1:] {
		if x, err := strconv.Atoi(v); err == nil {
			nums = append(nums, x)
		}
	}
	return nums, m[1], true
}

// replayJoin replays Q4's join kernels at the plan's strategy, bits and
// passes: both inputs radix-clustered, then the radix or partitioned
// hash join of the clusters.
func (r *replayer) replayJoin(d *dataset, opt monetlite.Options, strategy string, bits, passes int) error {
	n := len(d.part)
	left, right := monetlite.NewPairs(n), monetlite.NewPairs(partRows)
	for i := range left.BUNs {
		left.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(d.part[i])}
	}
	for i := range right.BUNs {
		right.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(i)}
	}
	var lc, rc *core.Clustered
	var err error
	clNS := timeNS(3, func() { lc, err = core.RadixClusterOpts(nil, left, bits, passes, nil, opt) }) / float64(n)
	if err != nil {
		return fmt.Errorf("kernel replay: %w", err)
	}
	if rc, err = core.RadixClusterOpts(nil, right, bits, passes, nil, opt); err != nil {
		return fmt.Errorf("kernel replay: %w", err)
	}
	r.record("radix_cluster", "core.radix_cluster_ns_per_tuple", clNS, n, "ns/tuple",
		fmt.Sprintf("TcNanos(P=%d,B=%d,C)/C", passes, bits),
		func(m monetlite.CostModel) float64 { return m.TcNanos(passes, bits, n) / float64(n) })
	var joinNS float64
	formula := fmt.Sprintf("TrNanos(B=%d,C)/C", bits)
	pred := func(m monetlite.CostModel) float64 { return m.TrNanos(bits, n) / float64(n) }
	if strategy == "phash" {
		joinNS = timeNS(3, func() { _, err = core.PartitionedHashJoinClusteredOpts(nil, lc, rc, nil, opt) })
		formula = fmt.Sprintf("ThNanos(B=%d,C)/C", bits)
		pred = func(m monetlite.CostModel) float64 { return m.ThNanos(bits, n) / float64(n) }
	} else {
		joinNS = timeNS(3, func() { _, err = core.RadixJoinClusteredOpts(nil, lc, rc, opt) })
	}
	if err != nil {
		return fmt.Errorf("kernel replay: %w", err)
	}
	r.record("radix_join", "core.radix_join_ns_per_tuple", joinNS/float64(n), n, "ns/tuple", formula, pred)
	return nil
}

// replayWarehouse: Q4's radix cluster and join at the plan's bits and
// passes, its hash grouping; Q6's (key, value) cluster and radix
// grouping at the plan's bits and passes; and Q6 under forced hash and
// forced radix grouping.
func (b *bench) replayWarehouse(r *replayer) error {
	d := b.ds
	n := len(d.order)
	opt := monetlite.Options{Parallelism: b.nproc}

	plan4, err := q4.build(b.db, params{}).Parallel(b.nproc).Plan()
	if err != nil {
		return err
	}
	// The core replays follow the plan's radix or partitioned hash join;
	// a plan without one leaves them at 0.
	if jn, strategy, ok := explainNums(joinPlanRE, plan4.Explain()); ok {
		if err := r.replayJoin(d, opt, strategy, jn[0], jn[1]); err != nil {
			return err
		}
	}

	// Q4's grouping feed: the category of each row's part and its margin.
	keys := make([]int64, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = int64(d.partCategory[d.part[i]])
		vals[i] = d.partRetail[d.part[i]] - price(d.priceCents[i])
	}
	var gerr error
	hashNS := timeNS(3, func() { _, gerr = agg.HashGroup(nil, bat.NewI64(keys), bat.NewF64(vals)) }) / float64(n)
	if gerr != nil {
		return fmt.Errorf("kernel replay: %w", gerr)
	}
	r.record("hash_group", "agg.hash_group_ns_per_row", hashNS, n, "ns/row", "", nil)

	// Q6's feed: customer key and revenue.
	plan6, err := q6.build(b.db, params{}).Parallel(b.nproc).Plan()
	if err != nil {
		return err
	}
	if an, _, ok := explainNums(radixAggRE, plan6.Explain()); ok {
		abits, apasses := an[0], an[1]
		for i := range keys {
			keys[i] = int64(d.cust[i])
			vals[i] = price(d.priceCents[i]) * (1 - float64(d.discnt[i])/10)
		}
		kvNS := timeNS(3, func() { _, _, _, gerr = core.RadixClusterKV(keys, vals, abits, apasses, opt) }) / float64(n)
		if gerr != nil {
			return fmt.Errorf("kernel replay: %w", gerr)
		}
		r.record("cluster_kv", "core.cluster_kv_ns_per_tuple", kvNS, n, "ns/tuple",
			fmt.Sprintf("P·ClusterPassBytes(B/P,C,16)/C, B=%d P=%d", abits, apasses),
			func(m monetlite.CostModel) float64 {
				bp := float64(abits) / float64(apasses)
				return m.Nanos("", m.ClusterPassBytes(bp, n, agg.PairBytes).Scale(float64(apasses))) / float64(n)
			})
		radixNS := timeNS(3, func() { _, gerr = agg.RadixGroup(nil, bat.NewI64(keys), bat.NewF64(vals), abits, apasses) }) / float64(n)
		if gerr != nil {
			return fmt.Errorf("kernel replay: %w", gerr)
		}
		r.record("radix_group", "agg.radix_group_ns_per_row", radixNS, n, "ns/row", "", nil)
	}
	keys, vals = nil, nil // free the feeds before the regret probe

	// Regret probe: Q6 under each forced grouping strategy. The engine
	// keeps sums bit-identical across worker counts and pipelining only
	// within one strategy (hash merges per-morsel partial sums), so each
	// is checked against a serial, unpipelined reference of its own.
	ms := map[string]float64{}
	for _, s := range []string{"hash", "radix"} {
		ref, err := q6.build(b.db, params{}).GroupStrategy(s).Parallel(1).Pipeline(false).Run()
		if err != nil {
			return fmt.Errorf("reference Q6 GroupStrategy(%s): %w", s, err)
		}
		var ts []float64
		for i := 0; i < 3; i++ {
			runtime.GC()
			t0 := time.Now()
			res, err := q6.build(b.db, params{}).Parallel(b.nproc).GroupStrategy(s).Run()
			ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
			r.out.attempted++
			if err == nil {
				err = sameResult(res, ref)
			}
			if err != nil {
				r.out.failed++
				b.mismatches = append(b.mismatches, fmt.Sprintf("Q6 GroupStrategy(%s): %v", s, err))
			}
		}
		ms[s] = median(ts)
	}
	r.record("hash_vs_radix", "agg.hash_vs_radix_ratio", ms["hash"]/ms["radix"], 0, "ratio", "", nil)
	return nil
}
