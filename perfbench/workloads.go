package main

import (
	"fmt"
	"math"

	"monetlite"
)

// params are the inputs one op binds into its query templates.
type params struct {
	lo, hi int64  // range predicate: order (point-lookup) or date1 (dashboard)
	mode   string // shipmode value (dashboard)
}

// query is one template of the canned query set in cmd/mlquery.
type query struct {
	name  string
	build func(d *db, p params) *monetlite.QueryBuilder
}

// workload is one input set of the benchmark. Each op runs every query
// of the workload in order, with one draw of params.
type workload struct {
	name    string
	queries []query
	// pool draws the distinct parameter sets a run cycles through; each
	// gets a reference result. Nil means every op draws fresh params
	// (lookup) and is checked against the generated rows instead.
	pool   func(r *rng) []params
	lookup func(r *rng) params
}

func revenue() monetlite.MeasureExpr {
	return monetlite.Mul(monetlite.Col("price"), monetlite.Sub(monetlite.Const(1), monetlite.Col("discnt")))
}

var (
	qPoint = query{"PL", func(d *db, p params) *monetlite.QueryBuilder {
		return monetlite.Query(d.items).WhereRange("order", p.lo, p.hi).
			Select("order", "qty", "price", "shipmode")
	}}
	q1 = query{"Q1", func(d *db, p params) *monetlite.QueryBuilder {
		return monetlite.Query(d.items).WhereRange("date1", p.lo, p.hi).
			GroupBy("shipmode", revenue())
	}}
	q3 = query{"Q3", func(d *db, p params) *monetlite.QueryBuilder {
		return monetlite.Query(d.items).WhereRange("date1", p.lo, p.hi).
			WhereString("shipmode", p.mode).
			JoinTable(d.parts, "part", "id").
			GroupBy("category", revenue()).
			OrderBy("sum", true)
	}}
	q5 = query{"Q5", func(d *db, p params) *monetlite.QueryBuilder {
		return monetlite.Query(d.items).WhereString("shipmode", p.mode).
			WhereRange("date1", p.lo, p.hi).
			Select("order", "date1", "price").
			Limit(20)
	}}
	q4 = query{"Q4", func(d *db, p params) *monetlite.QueryBuilder {
		return monetlite.Query(d.items).JoinTable(d.parts, "part", "id").
			GroupBy("category", monetlite.Sub(monetlite.Col("retail"), monetlite.Col("price"))).
			OrderBy("sum", true)
	}}
	q6 = query{"Q6", func(d *db, p params) *monetlite.QueryBuilder {
		return monetlite.Query(d.items).GroupBy("cust", revenue())
	}}
)

// lookupWidth is the number of consecutive orders a point lookup reads.
const lookupWidth = 20

// Dashboard windows: widths span 25..1250 days of the 2500-day date1
// domain (about 1%..50% selectivity), which straddles the planner's
// scan-vs-CSS-tree choice. The pool is a systematic sample: one seeded
// offset places a width in every equal slice of that span, so every
// seed sees the same mix of widths and access paths; the start dates
// are seeded, and shipmodes cycle so that each mode covers the whole
// span of widths.
const (
	minWindow     = 25
	maxWindow     = 1250
	dashboardPool = 48
)

var workloads = []*workload{
	{
		name:    "point-lookup",
		queries: []query{qPoint},
		lookup: func(r *rng) params {
			k := int64(1000 + r.intn(itemRows-lookupWidth+1))
			return params{lo: k, hi: k + lookupWidth - 1}
		},
	},
	{
		name:    "dashboard",
		queries: []query{q1, q3, q5},
		pool: func(r *rng) []params {
			out := make([]params, dashboardPool)
			span := float64(maxWindow - minWindow)
			u, mode := r.float(), r.intn(len(shipModes))
			for i := range out {
				w := minWindow + int(span*(float64(i)+u)/dashboardPool)
				lo := int64(dateLo + r.intn(dateDays-w+1))
				out[i] = params{lo: lo, hi: lo + int64(w) - 1, mode: shipModes[(mode+3*i)%len(shipModes)]}
			}
			return out
		},
	},
	{
		name:    "warehouse",
		queries: []query{q4, q6},
		pool:    func(*rng) []params { return []params{{}} },
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// opSource hands out each op's params: fresh lookups, or the parameter
// pool in seeded shuffled rounds so every pool entry runs equally often.
type opSource struct {
	w     *workload
	r     *rng
	pool  []params
	order []int
	next  int
}

func newOpSource(w *workload, seed uint64) *opSource {
	s := &opSource{w: w, r: &rng{state: seed ^ 0x6a09e667f3bcc909}}
	if w.pool != nil {
		s.pool = w.pool(s.r)
	}
	return s
}

// first returns the params of the cold first op. pool[0] is the
// narrowest dashboard window, which the planner serves from the CSS
// tree, so the lazy tree build lands in set-up on every seed.
func (s *opSource) first() params {
	if s.pool == nil {
		return s.w.lookup(s.r)
	}
	return s.pool[0]
}

// take returns the next op's params and its pool index (-1: lookup).
func (s *opSource) take() (params, int) {
	if s.pool == nil {
		return s.w.lookup(s.r), -1
	}
	if s.next == len(s.order) {
		if s.order == nil {
			s.order = make([]int, len(s.pool))
			for i := range s.order {
				s.order[i] = i
			}
		}
		for i := len(s.order) - 1; i > 0; i-- {
			j := s.r.intn(i + 1)
			s.order[i], s.order[j] = s.order[j], s.order[i]
		}
		s.next = 0
	}
	i := s.order[s.next]
	s.next++
	return s.pool[i], i
}

// references computes every pool entry's result for every query once,
// serially and unpipelined: the engine promises byte-identical results
// at every worker count and pipeline setting.
func references(w *workload, d *db, pool []params) ([][]*monetlite.QueryResult, error) {
	refs := make([][]*monetlite.QueryResult, len(pool))
	for i, p := range pool {
		refs[i] = make([]*monetlite.QueryResult, len(w.queries))
		for j, q := range w.queries {
			res, err := q.build(d, p).Parallel(1).Pipeline(false).Run()
			if err != nil {
				return nil, fmt.Errorf("reference %s %+v: %w", q.name, p, err)
			}
			refs[i][j] = res
		}
	}
	return refs, nil
}

// sameResult reports the first difference between two results, byte for
// byte (floats by their bits).
func sameResult(got, want *monetlite.QueryResult) error {
	g, w := got.Rel, want.Rel
	if g.N != w.N || len(g.Cols) != len(w.Cols) {
		return fmt.Errorf("shape %dx%d, want %dx%d", g.N, len(g.Cols), w.N, len(w.Cols))
	}
	for c := range w.Cols {
		gc, wc := &g.Cols[c], &w.Cols[c]
		if gc.Name != wc.Name || gc.Kind != wc.Kind ||
			len(gc.Ints) != len(wc.Ints) || len(gc.Floats) != len(wc.Floats) || len(gc.Strs) != len(wc.Strs) {
			return fmt.Errorf("column %d is %s/%v, want %s/%v", c, gc.Name, gc.Kind, wc.Name, wc.Kind)
		}
		for i := range wc.Ints {
			if gc.Ints[i] != wc.Ints[i] {
				return fmt.Errorf("%s row %d: %d, want %d", wc.Name, i, gc.Ints[i], wc.Ints[i])
			}
		}
		for i := range wc.Floats {
			if math.Float64bits(gc.Floats[i]) != math.Float64bits(wc.Floats[i]) {
				return fmt.Errorf("%s row %d: %v, want %v", wc.Name, i, gc.Floats[i], wc.Floats[i])
			}
		}
		for i := range wc.Strs {
			if gc.Strs[i] != wc.Strs[i] {
				return fmt.Errorf("%s row %d: %q, want %q", wc.Name, i, gc.Strs[i], wc.Strs[i])
			}
		}
	}
	return nil
}

// checkLookup is the row-at-a-time oracle of the point-lookup query:
// walk the generated rows whose order lies in [lo, hi] (order is dense
// from 1000, so they are rows lo-1000 .. hi-1000) and compare each with
// the result row in storage order.
func (d *dataset) checkLookup(p params, res *monetlite.QueryResult) error {
	orders, err := res.Ints("order")
	if err != nil {
		return err
	}
	qtys, err := res.Ints("qty")
	if err != nil {
		return err
	}
	prices, err := res.Floats("price")
	if err != nil {
		return err
	}
	modes, err := res.Strings("shipmode")
	if err != nil {
		return err
	}
	from, to := max(p.lo-1000, 0), min(p.hi-1000, int64(len(d.order)-1))
	k := 0
	for i := from; i <= to; i++ {
		if int64(d.order[i]) < p.lo || int64(d.order[i]) > p.hi {
			continue
		}
		if k >= res.N() {
			return fmt.Errorf("lookup [%d,%d]: %d rows, want more", p.lo, p.hi, res.N())
		}
		if orders[k] != int64(d.order[i]) || qtys[k] != int64(d.qty[i]) ||
			math.Float64bits(prices[k]) != math.Float64bits(price(d.priceCents[i])) ||
			modes[k] != shipModes[d.shipmode[i]] {
			return fmt.Errorf("lookup [%d,%d] row %d: (%d %d %v %s), want (%d %d %v %s)", p.lo, p.hi, k,
				orders[k], qtys[k], prices[k], modes[k],
				d.order[i], d.qty[i], price(d.priceCents[i]), shipModes[d.shipmode[i]])
		}
		k++
	}
	if k != res.N() {
		return fmt.Errorf("lookup [%d,%d]: %d rows, want %d", p.lo, p.hi, res.N(), k)
	}
	return nil
}
