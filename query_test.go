package monetlite

import (
	"strings"
	"testing"

	"monetlite/internal/core"
)

// The facade-level engine tests: the fluent Query builder as a
// downstream user drives it.

func TestQueryBuilderPipeline(t *testing.T) {
	items, err := ItemTable(1<<14, 42)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := PartTable(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	q := Query(items).
		WhereRange("date1", 8500, 9499).
		JoinTable(parts, "part", "id").
		GroupBy("category", Mul(Col("price"), Sub(Const(1), Col("discnt")))).
		OrderBy("sum", true)

	ex, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Join[", "GroupAggregate[", "Select[", "predicted"} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q:\n%s", want, ex)
		}
	}

	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.N() == 0 || res.N() > len(Categories()) {
		t.Fatalf("got %d groups, want 1..%d", res.N(), len(Categories()))
	}
	sums, err := res.Floats("sum")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sums); i++ {
		if sums[i] > sums[i-1] {
			t.Errorf("sums not descending: %v", sums)
		}
	}
	counts, err := res.Ints("count")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	// Every selected item joins exactly one part, so the grouped counts
	// must sum to the selection size.
	oids, err := items.SelectRange(nil, "date1", 8500, 9499)
	if err != nil {
		t.Fatal(err)
	}
	if total != int64(len(oids)) {
		t.Errorf("grouped counts sum to %d, selection has %d rows", total, len(oids))
	}
}

func TestQuerySimMatchesNative(t *testing.T) {
	items, err := ItemTable(1<<12, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *QueryBuilder {
		return Query(items).
			WhereString("shipmode", "MAIL").
			GroupBy("status", Col("price"))
	}
	native, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	instr, err := build().RunSim(sim)
	if err != nil {
		t.Fatal(err)
	}
	if native.N() != instr.N() {
		t.Fatalf("native %d rows, instrumented %d", native.N(), instr.N())
	}
	if sim.Stats().ElapsedNanos() <= 0 {
		t.Error("instrumented run recorded no simulated time")
	}
}

func TestQueryFormatAndRows(t *testing.T) {
	items, err := ItemTable(256, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Query(items).
		Select("order", "qty", "shipmode").
		Limit(3).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.N() != 3 {
		t.Fatalf("got %d rows, want 3", res.N())
	}
	out := res.Format(-1)
	if !strings.Contains(out, "shipmode") {
		t.Errorf("Format missing header:\n%s", out)
	}
	row := res.Row(0)
	if len(row) != 3 {
		t.Fatalf("Row has %d values, want 3", len(row))
	}
}

// TestWhereRangeInvertedIsEmpty pins the empty-range contract at the
// public API: WhereRange(col, lo, hi) with lo > hi selects nothing, on
// the fused and the materializing (Pipeline(false)) paths, serial and
// morsel-parallel. The scan and refilter kernels test a range with one
// unsigned comparison, x-lo <= hi-lo, which an inverted range would
// pass for every row without their hi < lo guard.
func TestWhereRangeInvertedIsEmpty(t *testing.T) {
	old := core.MorselRows
	core.MorselRows = 1 << 12 // four morsels, so two workers fan out
	t.Cleanup(func() { core.MorselRows = old })
	items, err := ItemTable(1<<14, 42)
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		name  string
		build func() *QueryBuilder
	}{
		{"select", func() *QueryBuilder {
			return Query(items).WhereRange("date1", 9499, 8500).Select("order")
		}},
		{"refilter", func() *QueryBuilder {
			return Query(items).WhereString("shipmode", "MAIL").WhereRange("date1", 9499, 8500).Select("order")
		}},
		{"refilter-agg", func() *QueryBuilder {
			return Query(items).WhereString("shipmode", "MAIL").WhereRange("qty", 30, 10).GroupBy("status", Col("price"))
		}},
	}
	for _, q := range queries {
		for _, workers := range []int{1, 2} {
			for _, pipe := range []bool{true, false} {
				res, err := q.build().Parallel(workers).Pipeline(pipe).Run()
				if err != nil {
					t.Fatalf("%s workers=%d pipeline=%v: %v", q.name, workers, pipe, err)
				}
				if res == nil || res.N() != 0 {
					t.Fatalf("%s workers=%d pipeline=%v: inverted range selected rows: %+v", q.name, workers, pipe, res)
				}
				if col, err := res.Ints("order"); err == nil && col == nil {
					t.Errorf("%s workers=%d pipeline=%v: empty result column is nil", q.name, workers, pipe)
				}
			}
		}
	}
}
