package main

import (
	"fmt"

	"monetlite"
)

// Table sizes: the Figure-4 item table at 1M rows and the part
// dimension it joins, fixed so that every run measures the same shape.
const (
	itemRows = 1 << 20
	partRows = 2000
)

var (
	shipModes  = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	statuses   = []string{"F", "O", "P"}
	categories = []string{"ANODIZED", "BRUSHED", "BURNISHED", "PLATED", "POLISHED"}
)

// Domains of the generated item columns.
const (
	dateLo      = 8000
	dateDays    = 2500
	commentPool = 1000
)

// rng is a splitmix64 generator, so the same seed gives the same rows on
// every platform and Go release.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// dataset is the benchmark's own copy of the rows it generates, kept
// column by column: the engine only ever sees them as [][]any rows, and
// the point-lookup oracle reads them back row at a time.
type dataset struct {
	order, part, supp, cust, qty []int32
	priceCents                   []uint16 // price = cents/100
	discnt, tax                  []uint8  // discnt = tenths/10, tax = cents/100
	status, shipmode             []uint8
	date1, date2                 []int32
	comment                      []uint16

	partCategory []uint8
	partRetail   []float64
}

// generate draws the item and part rows from seed. order is dense and
// ascending (1000, 1001, ...) as in Figure 4; cust is a uniformly
// random key over n/2 customers, the high-cardinality GROUP BY key.
func generate(seed uint64) *dataset {
	n := itemRows
	d := &dataset{
		order: make([]int32, n), part: make([]int32, n), supp: make([]int32, n),
		cust: make([]int32, n), qty: make([]int32, n),
		priceCents: make([]uint16, n), discnt: make([]uint8, n), tax: make([]uint8, n),
		status: make([]uint8, n), shipmode: make([]uint8, n),
		date1: make([]int32, n), date2: make([]int32, n), comment: make([]uint16, n),
		partCategory: make([]uint8, partRows), partRetail: make([]float64, partRows),
	}
	r := &rng{state: seed}
	custR := &rng{state: seed ^ 0x5bd1e9955bd1e995}
	for i := 0; i < n; i++ {
		d.order[i] = int32(1000 + i)
		d.part[i] = int32(r.intn(partRows))
		d.supp[i] = int32(r.intn(100))
		d.cust[i] = int32(custR.intn(n / 2))
		d.qty[i] = int32(1 + r.intn(50))
		d.priceCents[i] = uint16(r.intn(10000))
		d.discnt[i] = uint8(r.intn(2))
		d.tax[i] = uint8(r.intn(9))
		d.status[i] = uint8(r.intn(len(statuses)))
		d.date1[i] = int32(dateLo + r.intn(dateDays))
		d.date2[i] = int32(dateLo + r.intn(dateDays))
		d.shipmode[i] = uint8(r.intn(len(shipModes)))
		d.comment[i] = uint16(r.intn(commentPool))
	}
	pr := &rng{state: seed ^ 0x2545f4914f6cdd1d}
	for i := 0; i < partRows; i++ {
		d.partCategory[i] = uint8(pr.intn(len(categories)))
		d.partRetail[i] = float64(100+pr.intn(90000)) / 100
	}
	return d
}

func price(cents uint16) float64 { return float64(cents) / 100 }

// boxed returns the boxed values f(0), ..., f(n-1), so building a
// million []any rows allocates per row only for the columns whose
// values are unique per row (order, cust).
func boxed[T any](n int, f func(int) T) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// itemRecords returns the item table as row-major records in the shape
// monetlite.Decompose takes for monetlite.ItemSchema().
func (d *dataset) itemRecords() [][]any {
	w := len(monetlite.ItemSchema().Cols)
	n := len(d.order)
	rows := make([][]any, n)
	cells := make([]any, n*w)
	asInt := func(i int) int64 { return int64(i) }
	parts, supps, qtys := boxed(partRows, asInt), boxed(100, asInt), boxed(51, asInt)
	prices := boxed(10000, func(i int) float64 { return price(uint16(i)) })
	discnts := boxed(2, func(i int) float64 { return float64(i) / 10 })
	taxes := boxed(9, func(i int) float64 { return float64(i) / 100 })
	dates := boxed(dateDays, func(i int) int32 { return int32(dateLo + i) })
	stats := boxed(len(statuses), func(i int) string { return statuses[i] })
	modes := boxed(len(shipModes), func(i int) string { return shipModes[i] })
	comments := boxed(commentPool, func(i int) string { return fmt.Sprintf("item comment %d", i) })
	for i := 0; i < n; i++ {
		r := cells[i*w : (i+1)*w : (i+1)*w]
		r[0] = int64(d.order[i])
		r[1] = parts[d.part[i]]
		r[2] = supps[d.supp[i]]
		r[3] = int64(d.cust[i])
		r[4] = qtys[d.qty[i]]
		r[5] = prices[d.priceCents[i]]
		r[6] = discnts[d.discnt[i]]
		r[7] = taxes[d.tax[i]]
		r[8] = stats[d.status[i]]
		r[9] = dates[d.date1[i]-dateLo]
		r[10] = dates[d.date2[i]-dateLo]
		r[11] = modes[d.shipmode[i]]
		r[12] = comments[d.comment[i]]
		rows[i] = r
	}
	return rows
}

// partRecords returns the part table as rows for monetlite.PartSchema().
func (d *dataset) partRecords() [][]any {
	rows := make([][]any, partRows)
	for i := range rows {
		rows[i] = []any{int64(i), categories[d.partCategory[i]], d.partRetail[i]}
	}
	return rows
}

// db is one loaded database: the two decomposed tables.
type db struct {
	items, parts *monetlite.Table
}

func decompose(itemRecs, partRecs [][]any) (*db, error) {
	items, err := monetlite.Decompose(monetlite.ItemSchema(), itemRecs)
	if err != nil {
		return nil, fmt.Errorf("decompose item: %w", err)
	}
	parts, err := monetlite.Decompose(monetlite.PartSchema(), partRecs)
	if err != nil {
		return nil, fmt.Errorf("decompose part: %w", err)
	}
	return &db{items: items, parts: parts}, nil
}
