package dsm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"monetlite/internal/bat"
	"monetlite/internal/workload"
)

// The into-caller-buffer pipeline kernels must agree exactly with the
// materializing operators they replace, and must not allocate when the
// caller's buffer has capacity.

func kernelTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl, err := ItemTable(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSelectAndFilterPosKernels(t *testing.T) {
	tbl := kernelTable(t, 4096)
	date, err := tbl.Column("date1")
	if err != nil {
		t.Fatal(err)
	}
	ship, err := tbl.Column("shipmode")
	if err != nil {
		t.Fatal(err)
	}

	// Ranged select into a caller buffer vs the whole-column scan.
	oids, err := tbl.SelectRange(nil, "date1", 8500, 9499)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int32, 0, 4096)
	var got []int32
	for _, r := range [][2]int{{0, 1000}, {1000, 1000}, {1000, 4096}} {
		part := SelectRangePos(date, 8500, 9499, r[0], r[1], buf[:0])
		got = append(got, part...)
	}
	if len(got) != len(oids) {
		t.Fatalf("SelectRangePos found %d positions, scan %d", len(got), len(oids))
	}
	for i := range oids {
		if int64(got[i]) != int64(oids[i]) {
			t.Fatalf("position %d: kernel %d, scan %d", i, got[i], oids[i])
		}
	}

	// Code select + range refilter compose like two scans.
	code, ok := ship.Enc.Code("MAIL")
	if !ok {
		t.Fatal("MAIL outside dictionary")
	}
	pos := SelectCodePos(ship, code, 0, 4096, buf[:0])
	pos = FilterRangePos(date, 8500, 9499, pos)
	want, err := tbl.SelectString(nil, "shipmode", "MAIL")
	if err != nil {
		t.Fatal(err)
	}
	dates, err := tbl.GatherInt(nil, "date1", want)
	if err != nil {
		t.Fatal(err)
	}
	wantBoth := 0
	for _, v := range dates {
		if v >= 8500 && v <= 9499 {
			wantBoth++
		}
	}
	if len(pos) != wantBoth {
		t.Fatalf("code+range filter kept %d rows, scans agree on %d", len(pos), wantBoth)
	}

	// FilterCodePos over an identity position vector equals the code
	// scan.
	idn := buf[:0]
	for i := 0; i < 4096; i++ {
		idn = append(idn, int32(i))
	}
	kept := FilterCodePos(ship, code, idn)
	if len(kept) != len(want) {
		t.Fatalf("FilterCodePos kept %d, scan %d", len(kept), len(want))
	}
}

func TestGatherPosKernels(t *testing.T) {
	tbl := kernelTable(t, 2048)
	rng := workload.NewRNG(3)
	pos := make([]int32, 0, 300)
	for i := 0; i < 300; i++ {
		pos = append(pos, int32(rng.Intn(2048)))
	}
	oids := make([]bat.Oid, len(pos))
	for i, p := range pos {
		oids[i] = bat.Oid(p)
	}

	price, _ := tbl.Column("price")
	order, _ := tbl.Column("order")
	ship, _ := tbl.Column("shipmode")

	wantF, err := tbl.GatherFloat(nil, "price", oids)
	if err != nil {
		t.Fatal(err)
	}
	if gotF := AppendFloatsPos(nil, price, pos); !reflect.DeepEqual(gotF, wantF) {
		t.Error("AppendFloatsPos differs from GatherFloat")
	}
	if gotF := GatherFloatsPos(price, pos, make([]float64, 0, len(pos))); !reflect.DeepEqual(gotF, wantF) {
		t.Error("GatherFloatsPos differs from GatherFloat")
	}
	wantI, err := tbl.GatherInt(nil, "order", oids)
	if err != nil {
		t.Fatal(err)
	}
	if gotI := AppendIntsPos(nil, order, pos); !reflect.DeepEqual(gotI, wantI) {
		t.Error("AppendIntsPos differs from GatherInt")
	}
	wantS, err := tbl.GatherString(nil, "shipmode", oids)
	if err != nil {
		t.Fatal(err)
	}
	gotS, err := AppendStringsPos(nil, ship, pos)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotS, wantS) {
		t.Error("AppendStringsPos differs from GatherString")
	}
	// Codes: unsigned, matching CodeAt.
	codes := AppendCodesPos(nil, ship, pos)
	for i, p := range pos {
		if codes[i] != CodeAt(ship, int(p)) {
			t.Fatalf("code at %d: %d, want %d", p, codes[i], CodeAt(ship, int(p)))
		}
	}
}

func TestPosKernelsDoNotAllocate(t *testing.T) {
	tbl := kernelTable(t, 4096)
	date, _ := tbl.Column("date1")
	price, _ := tbl.Column("price")
	posBuf := make([]int32, 0, 4096)
	fltBuf := make([]float64, 0, 4096)
	allocs := testing.AllocsPerRun(20, func() {
		pos := SelectRangePos(date, 8000, 9999, 0, 4096, posBuf[:0])
		pos = FilterRangePos(date, 8500, 9499, pos)
		GatherFloatsPos(price, pos, fltBuf)
	})
	if allocs != 0 {
		t.Errorf("select→filter→gather pipeline allocated %.1f times per run, want 0", allocs)
	}
}

// TestSelectRangeSliceAcrossBlocks drives the predicated select over
// several predBlock-row blocks into buffers whose spare capacity runs
// out part-way, so blocks switch between the in-place and the staged
// (append) path — for both output types.
func TestSelectRangeSliceAcrossBlocks(t *testing.T) {
	n := 3*predBlock + 7
	rng := workload.NewRNG(5)
	vals := make([]int16, n)
	for i := range vals {
		vals[i] = int16(rng.Intn(1000))
	}
	for _, r := range [][2]int64{{0, 999}, {100, 149}, {500, 500}, {-5, -1}, {600, 400}} {
		var want []int32
		for i, v := range vals {
			if int64(v) >= r[0] && int64(v) <= r[1] {
				want = append(want, int32(100+i))
			}
		}
		for _, spare := range []int{0, len(want) / 2, len(want), n} {
			got := SelectRangeSlice(vals, r[0], r[1], 100, make([]int32, 1, 1+spare))
			if got[0] != 0 || !slices.Equal(got[1:], want) {
				t.Fatalf("range %v, spare %d: got %d positions %v, want %d", r, spare, len(got)-1, got[1:], len(want))
			}
			oids := SelectRangeSlice(vals, r[0], r[1], 100, make([]bat.Oid, 0, spare))
			for i := range want {
				if oids[i] != bat.Oid(want[i]) {
					t.Fatalf("range %v, spare %d: OID %d = %d, want %d", r, spare, i, oids[i], want[i])
				}
			}
		}
	}
}

// TestMaterializingSelectAllocatesOnce: the materializing scan-select
// allocates its estimate-sized output and nothing else — the stack
// staging buffer and the estimate's predicate stay off the heap.
func TestMaterializingSelectAllocatesOnce(t *testing.T) {
	const n = 1 << 16
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i)
	}
	col := &Column{Def: ColumnDef{Name: "k", Type: LInt}, Vec: bat.NewI32(vals)}
	for _, sel := range []float64{0.01, 0.5} {
		lo := int64(n / 4)
		hi := lo + int64(sel*n) - 1
		if got := nativeSelectRangeAt(col, lo, hi, 0, n); int64(len(got)) != hi-lo+1 {
			t.Fatalf("sel %.2f: %d rows, want %d", sel, len(got), hi-lo+1)
		}
		allocs := testing.AllocsPerRun(20, func() { nativeSelectRangeAt(col, lo, hi, 0, n) })
		if allocs != 1 {
			t.Errorf("sel %.2f: nativeSelectRangeAt allocated %.1f times per run, want 1", sel, allocs)
		}
	}
}

// BenchmarkSelectPosKernels sweeps the selectivity of the positional
// select and refilter kernels over a shuffled 1M-row column. The
// kernels are branch-free, so ns/row should stay flat across the
// sweep: a branching loop peaks near 50%, where its data-dependent
// branch mispredicts most.
func BenchmarkSelectPosKernels(b *testing.B) {
	const n = 1 << 20
	rng := workload.NewRNG(13)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	keys := &Column{Def: ColumnDef{Name: "k", Type: LInt}, Vec: bat.NewI32(perm)}
	ident := make([]int32, n)
	for i := range ident {
		ident[i] = int32(i)
	}
	pos := make([]int32, 0, n)
	codes := make([]int8, n)
	codeCol := &Column{Def: ColumnDef{Name: "c", Type: LString}, Vec: bat.NewI8(codes)}
	perRow := func(b *testing.B) { b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row") }
	refilter := func(b *testing.B, filter func([]int32) []int32) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			pos = append(pos[:0], ident...)
			b.StartTimer()
			filter(pos)
		}
		perRow(b)
	}
	for _, pct := range []float64{0.1, 1, 10, 33, 50, 90, 99} {
		k := int64(pct / 100 * n)
		for i, p := range perm { // code 1 on exactly k shuffled rows
			codes[i] = int8(min(int64(p)/k, 1) ^ 1)
		}
		name := fmt.Sprintf("sel=%g%%", pct)
		b.Run("range/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pos = SelectRangePos(keys, 0, k-1, 0, n, pos[:0])
			}
			perRow(b)
		})
		b.Run("code/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pos = SelectCodePos(codeCol, 1, 0, n, pos[:0])
			}
			perRow(b)
		})
		b.Run("filter-range/"+name, func(b *testing.B) {
			refilter(b, func(p []int32) []int32 { return FilterRangePos(keys, 0, k-1, p) })
		})
		b.Run("filter-code/"+name, func(b *testing.B) {
			refilter(b, func(p []int32) []int32 { return FilterCodePos(codeCol, 1, p) })
		})
	}
}
