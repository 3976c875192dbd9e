package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/costmodel"
	"monetlite/internal/dsm"
)

// Fused, cache-resident pipelines: instead of executing one fully
// materialized BAT-algebra operator at a time, the planner groups a
// maximal non-breaking operator chain
//
//	Scan → Select[scan] → Refilter* → {OID list | Project | AggFeed} [→ Limit]
//
// into a single pipeline physical op. The pipeline executes per morsel
// of the base table: within a morsel it iterates small typed vectors
// (sized so the working set fits the machine's L2 cache), passing a
// position vector from stage to stage through per-worker scratch
// buffers — the intermediates that the materializing path writes to
// RAM and reads back (OID lists, position lists, gathered operand
// temporaries) never leave the cache. Pipeline breakers — the Join
// build/probe boundary, the GroupAggregate merge, OrderBy — still
// materialize exactly as before.
//
// Two contracts hold by construction:
//
//   - Results are byte-identical to the materializing path at every
//     worker count. Outputs append in (morsel, vector, row) order, the
//     gathers perform the same conversions, and the GroupAggregate
//     sink materializes the identical (key, value) feed arrays before
//     handing them to the *same* grouping code the materializing
//     operator uses — hash/sort partials-and-merge or the
//     radix-partitioned path, per the planner's choice — so even float
//     aggregates associate identically. The AggFeed sink is thus all a
//     radix GroupAggregate needs: its feed arrays stream straight into
//     the first cluster pass, with no other intermediate materialized.
//   - Instrumented runs (sim != nil) never enter the fused path: the
//     pipeline delegates to the original operator chain, which stays
//     strictly serial, so the paper's figures reproduce unchanged.

// pipeFilter is one filtering stage of a pipeline.
type pipeFilter struct {
	col  *dsm.Column
	pred Predicate
	est  float64
	base bool // contiguous scan-select directly above the Scan
}

// pipelineOp is the fused physical operator.
type pipelineOp struct {
	legacy  physOp // the original chain, kept for instrumented runs
	t       *dsm.Table
	filters []pipeFilter
	proj    *projectOp  // Project sink (nil otherwise)
	gagg    *groupAggOp // GroupAggregate sink (nil otherwise)
	limitN  int         // Limit probe; -1 = none

	vecRows int     // rows per stage vector (working set fits L2)
	estOut  float64 // estimated fraction of base rows surviving all filters
	par     int     // planned native degree of parallelism

	model      *costmodel.Model
	stages     []physOp // explain adapters, in execution order
	savedBytes float64  // predicted intermediate traffic not spent
	cost       costmodel.Breakdown
}

func (o *pipelineOp) label() string {
	parts := []string{}
	if len(o.filters) > 0 && o.filters[0].base {
		parts = append(parts, "Select")
	} else {
		parts = append(parts, "Scan")
	}
	for _, f := range o.filters {
		if !f.base {
			parts = append(parts, "Refilter")
		}
	}
	switch {
	case o.proj != nil:
		parts = append(parts, "Project")
	case o.gagg != nil:
		if o.gagg.strat == aggRadix {
			parts = append(parts, "Agg[radix]")
		} else {
			parts = append(parts, "Agg")
		}
	}
	if o.limitN >= 0 {
		parts = append(parts, "Limit")
	}
	return fmt.Sprintf("Pipeline[%s]", strings.Join(parts, "→"))
}

func (o *pipelineOp) detail() string {
	return fmt.Sprintf("%s  vec=%d rows  par=%d  saves~%s traffic",
		o.t.Schema.Name, o.vecRows, o.par, fmtBytes(o.savedBytes))
}

func (o *pipelineOp) kids() []physOp                 { return o.stages }
func (o *pipelineOp) predicted() costmodel.Breakdown { return o.cost }

// fmtBytes renders a byte count at a human scale.
func fmtBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// pipeStageOp adapts a fused operator for EXPLAIN: the pipeline prints
// its member stages with their per-stage details and predictions, but
// the stages report a zero breakdown so Predicted() counts the
// pipeline's net cost exactly once.
//
//monet:allow costcover explain-only adapter: exec() always errors and the enclosing pipelineOp accounts the fused traffic exactly once
type pipeStageOp struct {
	inner physOp
	model *costmodel.Model
}

func (s *pipeStageOp) exec(*execCtx) (*fragment, error) {
	return nil, fmt.Errorf("engine: pipeline stage executed outside its pipeline")
}
func (s *pipeStageOp) label() string { return s.inner.label() }
func (s *pipeStageOp) detail() string {
	d := s.inner.detail()
	if c := s.inner.predicted(); c != emptyBreakdown {
		kind := costmodel.KindOf(s.inner.label())
		d = fmt.Sprintf("%s  [stage pred %.2f ms]", d, s.model.Millis(kind, c))
	}
	return d
}
func (s *pipeStageOp) kids() []physOp                 { return nil }
func (s *pipeStageOp) predicted() costmodel.Breakdown { return costmodel.Breakdown{} }

// ---------------------------------------------------------------------
// Fusion: rewrite a lowered physical tree, grouping maximal
// non-breaking chains into pipelines.

// fusePipelines walks a lowered plan and replaces every maximal
// fusable chain with a pipelineOp. Everything else (joins, CSS-tree
// selects, OrderBy, operators over materialized results) is left
// untouched — those are the pipeline breakers.
func fusePipelines(op physOp, cfg Config) physOp {
	if p := matchChain(op, cfg); p != nil {
		return p
	}
	if p := fuseOverCSS(op, cfg); p != nil {
		return p
	}
	switch x := op.(type) {
	case *limitOp:
		x.in = fusePipelines(x.in, cfg)
	case *projectOp:
		x.in = fusePipelines(x.in, cfg)
	case *orderByOp:
		x.in = fusePipelines(x.in, cfg)
	case *refilterOp:
		x.in = fusePipelines(x.in, cfg)
	case *groupAggOp:
		x.in = fusePipelines(x.in, cfg)
	case *selectScanOp:
		x.in = fusePipelines(x.in, cfg)
	case *selectCSSOp:
		x.in = fusePipelines(x.in, cfg)
	case *joinOp:
		x.left = fusePipelines(x.left, cfg)
		x.right = fusePipelines(x.right, cfg)
	}
	return op
}

// fuseOverCSS decides the access path where it matters most: a chain
// that would fuse over a scan-select but is broken by the CSS-tree
// select lowerSelect chose locally. It keeps the cheaper of
//
//   - predicted(CSS select + the unfused chain above it), and
//   - predicted(the pipeline fused over the scan alternative),
//
// returning the pipeline when that wins. The comparison is made only
// when the scan's select cost could be recovered: fusion saves at most
// the chain's intermediates — bounded by the chain's own predicted
// cost plus the scan's OID output — so a CSS lead beyond that (a point
// lookup) stands without building a pipeline. Once compared, the
// decision is final: the alternative is dropped, so a sub-chain
// further down never re-decides it.
func fuseOverCSS(op physOp, cfg Config) *pipelineOp {
	model := cfg.Model
	var chainN float64
	var slot *physOp
	cur := op
	for {
		switch x := cur.(type) {
		case *limitOp:
			slot = &x.in
		case *projectOp:
			slot = &x.in
		case *groupAggOp:
			slot = &x.in
		case *refilterOp:
			slot = &x.in
		default:
			return nil
		}
		chainN += model.Nanos(costmodel.KindOf(cur.label()), cur.predicted())
		if css, ok := (*slot).(*selectCSSOp); ok {
			return css.fuseOver(op, slot, chainN, cfg)
		}
		cur = *slot
	}
}

// fuseOver is fuseOverCSS's comparison for the CSS select sitting in
// *slot under the chain headed by op, whose unfused cost is chainN.
func (o *selectCSSOp) fuseOver(op physOp, slot *physOp, chainN float64, cfg Config) *pipelineOp {
	scan := o.scan
	if scan == nil {
		return nil
	}
	model := cfg.Model
	cssN := model.Nanos("Select[csstree]", o.cost)
	k := float64(scan.col.Vec.Len()) * scan.est
	recoverable := chainN + model.Nanos("Select[scan]", seqBreakdown(4*k, model))
	if model.Nanos("Select[scan]", scan.cost)-cssN >= recoverable {
		o.scan = nil
		return nil
	}
	*slot = scan
	if p := matchChain(op, cfg); p != nil {
		o.scan = nil
		if model.Nanos(costmodel.KindOf(p.label()), p.cost) < cssN+chainN {
			return p
		}
	}
	// CSS won, or this chain shape does not fuse (a Limit over a
	// GroupAggregate) and the chain below it decides.
	*slot = o
	return nil
}

// matchChain tries to interpret op as the head of a fusable chain down
// to a Scan, returning the pipeline or nil. Fusion rules (each must
// beat the materializing path, not just match it):
//
//   - a GroupAggregate sink always fuses (the gather+eval feed stays
//     in cache even over a bare scan);
//   - a Project sink fuses when at least one filter stage or a Limit
//     rides the chain (a bare full-table projection is already one
//     sequential sweep);
//   - a bare filter chain (OID-list sink) fuses when it has ≥ 2
//     stages, or a Limit to short-circuit — a single scan-select
//     already runs morsel-parallel with one output write.
func matchChain(op physOp, cfg Config) *pipelineOp {
	limitN := -1
	cur := op
	if l, ok := cur.(*limitOp); ok {
		limitN = l.n
		cur = l.in
	}
	var proj *projectOp
	var gagg *groupAggOp
	switch s := cur.(type) {
	case *projectOp:
		proj = s
		cur = s.in
	case *groupAggOp:
		if limitN >= 0 {
			return nil // Limit over the tiny aggregate result is free; fuse below instead
		}
		gagg = s
		cur = s.in
	}
	var filters []pipeFilter
	var scan *scanOp
walk:
	for {
		switch f := cur.(type) {
		case *refilterOp:
			if f.bindIdx != 0 {
				return nil
			}
			filters = append(filters, pipeFilter{col: f.col, pred: f.pred, est: f.est})
			cur = f.in
		case *selectScanOp:
			filters = append(filters, pipeFilter{col: f.col, pred: f.pred, est: f.est, base: true})
			cur = f.in
		case *scanOp:
			scan = f
			break walk
		default:
			return nil // CSS-tree select, join, materialized input, ...
		}
	}
	// filters were collected top-down; execution order is bottom-up.
	for i, j := 0, len(filters)-1; i < j; i, j = i+1, j-1 {
		filters[i], filters[j] = filters[j], filters[i]
	}
	// A fused chain covers exactly one table, so every column reference
	// must resolve to binding 0 — guaranteed by construction (the chain
	// roots at a Scan), checked here so a future planner change cannot
	// silently fuse a multi-binding shape.
	if proj != nil {
		for _, pc := range proj.cols {
			if pc.col == nil || pc.bindIdx != 0 {
				return nil
			}
		}
	}
	if gagg != nil {
		if gagg.bindIdx != 0 {
			return nil
		}
		for _, op := range gagg.operands {
			if op.bindIdx != 0 {
				return nil
			}
		}
	}
	switch {
	case gagg != nil:
	case proj != nil:
		if len(filters) == 0 && limitN < 0 {
			return nil
		}
	default:
		if len(filters) < 2 && limitN < 0 {
			return nil
		}
		if len(filters) == 0 {
			return nil // bare Scan (+Limit): the sliced void binding is already free
		}
	}

	p := &pipelineOp{
		legacy:  op,
		t:       scan.t,
		filters: filters,
		proj:    proj,
		gagg:    gagg,
		limitN:  limitN,
		model:   cfg.Model,
		par:     planPar(cfg, float64(scan.t.N)),
	}
	p.estOut = 1
	for _, f := range filters {
		p.estOut *= f.est
	}
	p.vecRows = vecRowsFor(cfg.Model, p.rowFootprint())
	p.savedBytes = p.savedTraffic()
	var sum costmodel.Breakdown
	var stages []physOp
	var collect func(c physOp)
	collect = func(c physOp) {
		for _, k := range c.kids() {
			collect(k)
		}
		sum = sum.Add(c.predicted())
		stages = append(stages, &pipeStageOp{inner: c, model: cfg.Model})
	}
	collect(op)
	p.stages = stages
	p.cost = subClamp(sum, p.savedBreakdown(cfg.Model))
	return p
}

// savedBreakdown is the cost-model form of the traffic saving: only
// the terms the per-operator models actually charge for intermediates
// are subtracted — the eliminated OID-list output writes
// (seqBreakdown(4k) in scanSelectCost/refilterCost) and the
// per-operand temporary writes (the seqBreakdown(8k) term of each
// operand's gatherCost). savedTraffic reports the larger
// implementation-level byte count (lists are also read back, position
// lists materialize, …), but subtracting that would erase misses the
// models never predicted.
func (o *pipelineOp) savedBreakdown(model *costmodel.Model) costmodel.Breakdown {
	k := float64(o.t.N)
	var saved costmodel.Breakdown
	for i, f := range o.filters {
		k *= f.est
		if i < len(o.filters)-1 || o.proj != nil || o.gagg != nil {
			saved = saved.Add(seqBreakdown(4*k, model))
		}
	}
	if o.gagg != nil {
		saved = saved.Add(seqBreakdown(8*k, model).Scale(float64(len(o.gagg.operands))))
	}
	return saved
}

// rowFootprint estimates the per-row working-set bytes of one pipeline
// vector: the position vector plus every value the stages and sink
// touch per kept row — what must stay cache-resident.
func (o *pipelineOp) rowFootprint() int {
	b := 4 // position vector entry
	for _, f := range o.filters {
		if !f.base {
			b += f.col.Width()
		}
	}
	switch {
	case o.proj != nil:
		for _, pc := range o.proj.cols {
			w := pc.col.Width()
			if w < 8 {
				w = 8 // widened on materialization
			}
			b += w
		}
	case o.gagg != nil:
		b += 16 + 8*len(o.gagg.operands) // keys + vals + operand scratch
	default:
		b += 8 // OID output
	}
	return b
}

// vecRowsFor sizes a stage vector so the pipeline's working set
// occupies at most a quarter of L2 — leaving room for the streamed
// base columns and, under a GroupAggregate sink, the aggregation hash
// table (§3.2's cache-resident regime).
func vecRowsFor(model *costmodel.Model, rowBytes int) int {
	if rowBytes < 12 {
		rowBytes = 12
	}
	budget := model.M.L2.Size / 4
	v := budget / rowBytes
	// Round down to a power of two, clamped to [256, 64K].
	p := 256
	for p*2 <= v && p < 1<<16 {
		p *= 2
	}
	return p
}

// savedTraffic predicts the intermediate bytes the materializing path
// writes to and reads back from RAM that the fused pipeline never
// materializes: inter-stage OID lists, per-gather position resolution,
// and the GroupAggregate operand temporaries. This is the
// materialization-traffic term EXPLAIN reports per pipeline.
func (o *pipelineOp) savedTraffic() float64 {
	k := float64(o.t.N)
	saved := 0.0
	for i, f := range o.filters {
		k *= f.est
		last := i == len(o.filters)-1
		if !last || o.proj != nil || o.gagg != nil {
			// An OID list of k rows (4 bytes each), written once and read
			// back by the next stage.
			saved += 8 * k
		}
	}
	switch {
	case o.proj != nil:
		// Each materialized column re-reads the OID list to resolve
		// positions.
		saved += 4 * k * float64(len(o.proj.cols))
	case o.gagg != nil:
		// Per gather call (keys + each operand): the 8-byte position
		// list written and read back, plus the OID-list re-read; per
		// operand: the float temporary written then read by eval.
		saved += 20 * k * float64(1+len(o.gagg.operands))
		saved += 16 * k * float64(len(o.gagg.operands))
	}
	return saved
}

// ---------------------------------------------------------------------
// Execution.

// resolvedFilter is a pipeline filter with its predicate resolved to a
// kernel-ready form (dictionary codes looked up once per run).
type resolvedFilter struct {
	col  *dsm.Column
	base bool
	kind uint8
	lo   int64 // range lower bound, or the dictionary code
	hi   int64
	sv   *bat.StrVec
	val  string
}

// resolvedFilter kinds.
const (
	fRange uint8 = iota // numeric range
	fCode               // encoded string equality → code compare
	fStr                // unencoded string equality
	fMiss               // value outside dictionary: nothing matches
)

func (o *pipelineOp) resolveFilters() ([]resolvedFilter, error) {
	out := make([]resolvedFilter, len(o.filters))
	for i, f := range o.filters {
		rf := resolvedFilter{col: f.col, base: f.base}
		switch p := f.pred.(type) {
		case RangePred:
			rf.kind, rf.lo, rf.hi = fRange, p.Lo, p.Hi
		case EqStringPred:
			switch {
			case f.col.Enc != nil:
				code, ok := f.col.Enc.Code(p.Value)
				if !ok {
					rf.kind = fMiss
				} else {
					rf.kind, rf.lo = fCode, code
				}
			default:
				sv, ok := f.col.Vec.(*bat.StrVec)
				if !ok {
					return nil, fmt.Errorf("engine: column %q is not a string column", p.Col)
				}
				rf.kind, rf.sv, rf.val = fStr, sv, p.Value
			}
		default:
			return nil, fmt.Errorf("engine: unsupported predicate %T in pipeline", f.pred)
		}
		out[i] = rf
	}
	return out, nil
}

// selectInto runs a base filter over the contiguous positions
// [from, to), appending matches to dst.
func (f *resolvedFilter) selectInto(from, to int, dst []int32) []int32 {
	switch f.kind {
	case fRange:
		return dsm.SelectRangePos(f.col, f.lo, f.hi, from, to, dst)
	case fCode:
		return dsm.SelectCodePos(f.col, f.lo, from, to, dst)
	case fStr:
		for i := from; i < to; i++ {
			if f.sv.Str(i) == f.val {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	return dst // fMiss
}

// filterInPlace runs a refilter stage over a position vector.
func (f *resolvedFilter) filterInPlace(pos []int32) []int32 {
	switch f.kind {
	case fRange:
		return dsm.FilterRangePos(f.col, f.lo, f.hi, pos)
	case fCode:
		return dsm.FilterCodePos(f.col, f.lo, pos)
	case fStr:
		out := pos[:0]
		for _, p := range pos {
			if f.sv.Str(int(p)) == f.val {
				out = append(out, p)
			}
		}
		return out
	}
	return pos[:0] // fMiss
}

// pipeChunk accumulates one morsel's pipeline output; chunks
// concatenate in morsel order, so results are byte-identical for any
// worker count.
type pipeChunk struct {
	oids []bat.Oid // OID-list sink
	cols []RelCol  // Project sink
	keys []int64   // AggFeed sink
	vals []float64
	rows int
	done bool
	err  error

	// Profiling-only per-stage counters (nil when disabled — the hot
	// loop pays one nil check per vector): scanned base rows and the
	// survivor count after each filter stage.
	scanned   int
	stageRows []int64
}

func (o *pipelineOp) exec(ctx *execCtx) (*fragment, error) {
	if ctx.sim != nil {
		// The instrumented path models a single 1999 CPU and must stay
		// exactly the serial materializing execution the paper's cost
		// formulas describe.
		return ctx.exec(o.legacy)
	}
	rf, err := o.resolveFilters()
	if err != nil {
		return nil, err
	}
	n := o.t.N
	chunks := make([]pipeChunk, core.MorselsOf(n))
	if ctx.prof != nil {
		for m := range chunks {
			chunks[m].stageRows = make([]int64, len(rf))
		}
	}
	if err := o.run(ctx, rf, chunks); err != nil {
		return nil, err
	}
	if ctx.prof != nil {
		o.recordStages(ctx.prof, chunks)
	}
	return o.assemble(ctx, chunks)
}

// recordStages summarizes the fused stages as profile nodes: rows in
// and out per stage (from the profiling counters the morsel loop kept)
// and each stage's would-be traffic in cost-model width units. Stages
// carry no own wall time — they interleave per vector inside the
// pipeline's time.
func (o *pipelineOp) recordStages(prof *Profile, chunks []pipeChunk) {
	scanned := int64(0)
	stage := make([]int64, len(o.filters))
	fed := int64(0)
	for m := range chunks {
		scanned += int64(chunks[m].scanned)
		for i, r := range chunks[m].stageRows {
			stage[i] += r
		}
		fed += int64(chunks[m].rows)
	}
	prof.addStage("Scan", fmt.Sprintf("%s (%d rows)", o.t.Schema.Name, o.t.N),
		int64(o.t.N), scanned, 0, 0)
	in := scanned
	for i, f := range o.filters {
		label := "Select[refilter]"
		read := in * int64(f.col.Width())
		if f.base {
			label = "Select[scan]"
			read = scanned * int64(f.col.Width())
		}
		prof.addStage(label, fmt.Sprint(f.pred), in, stage[i], read, stage[i]*4)
		in = stage[i]
	}
	switch {
	case o.proj != nil:
		var read, written int64
		for _, pc := range o.proj.cols {
			w := int64(pc.col.Width())
			read += fed * w
			if w < 8 {
				w = 8
			}
			written += fed * w
		}
		prof.addStage("Project", o.proj.detail(), in, fed, read, written)
	case o.gagg != nil:
		w := int64(o.gagg.keyCol.Width())
		for _, oc := range o.gagg.operands {
			w += int64(oc.col.Width())
		}
		prof.addStage(fmt.Sprintf("AggFeed[%s]", o.gagg.strat), o.gagg.detail(),
			in, fed, fed*w, fed*16)
	default:
		prof.addStage("OIDs", "", in, fed, 0, fed*4)
	}
	if o.limitN >= 0 {
		out := fed
		if int64(o.limitN) < out {
			out = int64(o.limitN)
		}
		prof.addStage("Limit", fmt.Sprintf("%d", o.limitN), fed, out, 0, 0)
	}
}

// run drains the morsels over the worker pool. With a Limit probe the
// loop stops scheduling morsels as soon as a contiguous prefix of
// completed morsels has produced enough rows — the short-circuit that
// makes Limit-without-OrderBy stop consuming input.
func (o *pipelineOp) run(ctx *execCtx, rf []resolvedFilter, chunks []pipeChunk) error {
	n := o.t.N
	nm := len(chunks)
	workers := ctx.par(n)
	// Size every worker's arena before the fan-out: a run then
	// allocates the same bytes however many workers get to claim a
	// morsel.
	for w := 0; w < workers; w++ {
		ctx.arena(w).ensure(o.vecRows, len(o.gaggOperands()))
	}
	if workers <= 1 {
		produced := 0
		for m := 0; m < nm; m++ {
			lo, hi := core.MorselBounds(m, n)
			var start int64
			if ctx.spans != nil {
				start = ctx.spans.Clock()
			}
			o.runMorsel(ctx.arena(0), rf, lo, hi, &chunks[m])
			if ctx.spans != nil {
				ctx.spans.Record(0, m, start)
			}
			if chunks[m].err != nil {
				return chunks[m].err
			}
			chunks[m].done = true
			produced += chunks[m].rows
			if o.limitN >= 0 && produced >= o.limitN {
				break
			}
		}
		return nil
	}
	if o.limitN < 0 {
		core.ForEachSpan(workers, nm, ctx.spans, func(w, m int) {
			lo, hi := core.MorselBounds(m, n)
			o.runMorsel(ctx.arena(w), rf, lo, hi, &chunks[m])
			chunks[m].done = true
		})
	} else {
		o.runLimited(ctx, rf, chunks, workers)
	}
	for m := range chunks {
		if chunks[m].err != nil {
			return chunks[m].err
		}
	}
	return nil
}

// runLimited is the parallel morsel loop with the Limit short-circuit:
// workers pull morsel indexes off a shared counter; whenever the
// contiguous prefix of completed morsels reaches the limit, the fence
// drops and later morsels are never claimed. Which morsels run beyond
// the fence depends on scheduling, but the output never does — assemble
// cuts at the deterministic prefix.
func (o *pipelineOp) runLimited(ctx *execCtx, rf []resolvedFilter, chunks []pipeChunk, workers int) {
	n := o.t.N
	nm := len(chunks)
	var next, fence atomic.Int64
	fence.Store(int64(nm))
	var mu sync.Mutex
	frontier, cum := 0, 0
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			a := ctx.arena(w)
			for {
				m := int(next.Add(1) - 1)
				if m >= nm || int64(m) >= fence.Load() {
					return
				}
				lo, hi := core.MorselBounds(m, n)
				var start int64
				if ctx.spans != nil {
					start = ctx.spans.Clock()
				}
				o.runMorsel(a, rf, lo, hi, &chunks[m])
				if ctx.spans != nil {
					ctx.spans.Record(w, m, start)
				}
				mu.Lock()
				chunks[m].done = true
				for frontier < nm && chunks[frontier].done {
					cum += chunks[frontier].rows
					frontier++
					if cum >= o.limitN {
						if int64(frontier) < fence.Load() {
							fence.Store(int64(frontier))
						}
						break
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

// runMorsel executes the fused stages over one morsel, iterating
// cache-sized vectors; all scratch comes from the worker's arena.
func (o *pipelineOp) runMorsel(a *pipeArena, rf []resolvedFilter, lo, hi int, ch *pipeChunk) {
	a.ensure(o.vecRows, len(o.gaggOperands()))
	est := int(o.estOut*float64(hi-lo)) + 16
	if est > hi-lo {
		est = hi - lo
	}
	o.initChunk(ch, est)
	for vlo := lo; vlo < hi; vlo += o.vecRows {
		vhi := vlo + o.vecRows
		if vhi > hi {
			vhi = hi
		}
		if ch.stageRows != nil {
			ch.scanned += vhi - vlo
		}
		pos := a.pos[:0]
		rest := rf
		fi := 0
		if len(rf) > 0 && rf[0].base {
			pos = rf[0].selectInto(vlo, vhi, pos)
			rest = rf[1:]
			fi = 1
			if ch.stageRows != nil {
				ch.stageRows[0] += int64(len(pos))
			}
		} else {
			for i := vlo; i < vhi; i++ {
				pos = append(pos, int32(i))
			}
		}
		for i := range rest {
			if len(pos) == 0 {
				break
			}
			pos = rest[i].filterInPlace(pos)
			if ch.stageRows != nil {
				ch.stageRows[fi+i] += int64(len(pos))
			}
		}
		if len(pos) == 0 {
			continue
		}
		if err := o.emit(a, pos, ch); err != nil {
			ch.err = err
			return
		}
		ch.rows += len(pos)
	}
}

func (o *pipelineOp) gaggOperands() []opCol {
	if o.gagg == nil {
		return nil
	}
	return o.gagg.operands
}

// initChunk pre-sizes a morsel's output buffers from the planner's
// selectivity estimate.
func (o *pipelineOp) initChunk(ch *pipeChunk, est int) {
	switch {
	case o.proj != nil:
		ch.cols = make([]RelCol, len(o.proj.cols))
		for i, pc := range o.proj.cols {
			rc := RelCol{Name: pc.name, Kind: projColKind(pc)}
			switch rc.Kind {
			case KInt:
				rc.Ints = make([]int64, 0, est)
			case KFloat:
				rc.Floats = make([]float64, 0, est)
			default:
				rc.Strs = make([]string, 0, est)
			}
			ch.cols[i] = rc
		}
	case o.gagg != nil:
		ch.keys = make([]int64, 0, est)
		ch.vals = make([]float64, 0, est)
	default:
		ch.oids = make([]bat.Oid, 0, est)
	}
}

// projColKind mirrors the materializing projection's kind choice.
func projColKind(pc projCol) Kind {
	switch {
	case pc.col.Enc != nil:
		return KString
	case pc.col.Def.Type == dsm.LString:
		return KString
	case pc.col.Def.Type == dsm.LFloat:
		return KFloat
	default:
		return KInt
	}
}

// emit runs the sink over one vector of surviving positions.
func (o *pipelineOp) emit(a *pipeArena, pos []int32, ch *pipeChunk) error {
	switch {
	case o.proj != nil:
		for i, pc := range o.proj.cols {
			rc := &ch.cols[i]
			switch rc.Kind {
			case KInt:
				rc.Ints = dsm.AppendIntsPos(rc.Ints, pc.col, pos)
			case KFloat:
				rc.Floats = dsm.AppendFloatsPos(rc.Floats, pc.col, pos)
			default:
				strs, err := dsm.AppendStringsPos(rc.Strs, pc.col, pos)
				if err != nil {
					return err
				}
				rc.Strs = strs
			}
		}
	case o.gagg != nil:
		g := o.gagg
		if g.keyCol.Enc != nil {
			ch.keys = dsm.AppendCodesPos(ch.keys, g.keyCol, pos)
		} else {
			ch.keys = dsm.AppendIntsPos(ch.keys, g.keyCol, pos)
		}
		for ci, op := range g.operands {
			a.ops[ci] = dsm.GatherFloatsPos(op.col, pos, a.ops[ci])
		}
		for i := range pos {
			ch.vals = append(ch.vals, g.measure.eval(a.ops, i))
		}
	default:
		seq := o.t.Head.Seq
		for _, p := range pos {
			ch.oids = append(ch.oids, seq+bat.Oid(p))
		}
	}
	return nil
}

// assemble concatenates the morsel chunks in morsel order (cutting at
// the Limit, if any) and builds the output fragment.
func (o *pipelineOp) assemble(ctx *execCtx, chunks []pipeChunk) (*fragment, error) {
	total, cut := 0, len(chunks)
	for m := range chunks {
		total += chunks[m].rows
		if o.limitN >= 0 && total >= o.limitN {
			cut = m + 1
			break
		}
	}
	if o.limitN >= 0 {
		if cut < len(chunks) || total > o.limitN {
			if total > o.limitN {
				total = o.limitN
			}
			chunks = chunks[:cut]
		}
	}
	if len(chunks) == 1 {
		// Single-morsel fast path: the chunk's buffers already hold the
		// result in order — no concatenation copy.
		ch := &chunks[0]
		switch {
		case o.proj != nil:
			rel := &Rel{N: total, Cols: make([]RelCol, len(ch.cols))}
			for i, rc := range ch.cols {
				switch rc.Kind {
				case KInt:
					rc.Ints = rc.Ints[:total]
				case KFloat:
					rc.Floats = rc.Floats[:total]
				default:
					rc.Strs = rc.Strs[:total]
				}
				rel.Cols[i] = rc
			}
			return &fragment{rel: rel}, nil
		case o.gagg != nil:
			return o.gagg.finish(ctx, ch.keys[:total], ch.vals[:total])
		default:
			return &fragment{binds: []binding{{table: o.t, oids: ch.oids[:total]}}}, nil
		}
	}
	switch {
	case o.proj != nil:
		rel := &Rel{N: total, Cols: make([]RelCol, len(o.proj.cols))}
		for i, pc := range o.proj.cols {
			rc := RelCol{Name: pc.name, Kind: projColKind(pc)}
			switch rc.Kind {
			case KInt:
				rc.Ints = make([]int64, total)
				at := 0
				for m := range chunks {
					at += copy(rc.Ints[at:], chunks[m].cols[i].Ints)
				}
			case KFloat:
				rc.Floats = make([]float64, total)
				at := 0
				for m := range chunks {
					at += copy(rc.Floats[at:], chunks[m].cols[i].Floats)
				}
			default:
				rc.Strs = make([]string, total)
				at := 0
				for m := range chunks {
					at += copy(rc.Strs[at:], chunks[m].cols[i].Strs)
				}
			}
			rel.Cols[i] = rc
		}
		return &fragment{rel: rel}, nil
	case o.gagg != nil:
		keys := make([]int64, total)
		vals := make([]float64, total)
		at := 0
		for m := range chunks {
			copy(keys[at:], chunks[m].keys)
			at += copy(vals[at:], chunks[m].vals)
		}
		// Hand the feed to the same grouping + merge code the
		// materializing operator runs — bit-identical aggregates.
		return o.gagg.finish(ctx, keys, vals)
	default:
		oids := make([]bat.Oid, total)
		at := 0
		for m := range chunks {
			at += copy(oids[at:], chunks[m].oids)
		}
		return &fragment{binds: []binding{{table: o.t, oids: oids}}}, nil
	}
}
