package dsm

import (
	"testing"

	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/memsim"
)

// shrinkMorsels drops the morsel size so small test columns span many
// morsels; restored after the test.
func shrinkMorsels(t *testing.T, rows int) {
	t.Helper()
	old := core.MorselRows
	core.MorselRows = rows
	t.Cleanup(func() { core.MorselRows = old })
}

func sameOids(t *testing.T, name string, got, want []bat.Oid) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: parallel selected %d OIDs, serial %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: OID %d = %d, serial %d", name, i, got[i], want[i])
		}
	}
}

// TestParallelSelectsMatchSerial: the morsel-parallel scan-selects
// must produce OID lists byte-identical to the serial scans, across
// selectivities, on skewed and tiny inputs, for awkward worker counts.
func TestParallelSelectsMatchSerial(t *testing.T) {
	shrinkMorsels(t, 256)
	for _, n := range []int{1, 7, 255, 256, 257, 5000} {
		tbl, err := ItemTable(n, 42)
		if err != nil {
			t.Fatal(err)
		}
		ranges := []struct {
			name   string
			lo, hi int64
		}{
			{"all", 0, 1 << 40},
			{"none", -10, -1},
			{"half", 8000, 9000},
			{"point", 8500, 8500},
			{"inverted", 9000, 8000},
		}
		for _, r := range ranges {
			want, err := tbl.SelectRange(nil, "date1", r.lo, r.hi)
			if err != nil {
				t.Fatal(err)
			}
			if r.lo > r.hi && (want == nil || len(want) != 0) {
				t.Fatalf("inverted range [%d,%d] selected %v, want an empty non-nil list", r.lo, r.hi, want)
			}
			for _, w := range []int{2, 3, 16} {
				got, err := tbl.SelectRangeOpts(nil, "date1", r.lo, r.hi, core.Options{Parallelism: w})
				if err != nil {
					t.Fatal(err)
				}
				sameOids(t, r.name, got, want)
			}
		}
		for _, v := range []string{"MAIL", "NOSUCH"} {
			want, err := tbl.SelectString(nil, "shipmode", v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tbl.SelectStringOpts(nil, "shipmode", v, core.Options{Parallelism: 5})
			if err != nil {
				t.Fatal(err)
			}
			sameOids(t, "string "+v, got, want)
		}
	}
}

// TestParallelSelectInstrumentedStaysSerial: with a simulator the Opts
// selects must behave exactly like the serial selects — same OIDs and
// same simulated access counts (the sim models a single CPU).
func TestParallelSelectInstrumentedStaysSerial(t *testing.T) {
	shrinkMorsels(t, 256)
	run := func(opts bool) (memsim.Stats, []bat.Oid) {
		tbl, err := ItemTable(2048, 42)
		if err != nil {
			t.Fatal(err)
		}
		sim := memsim.MustNew(memsim.Origin2000())
		var oids []bat.Oid
		if opts {
			oids, err = tbl.SelectRangeOpts(sim, "date1", 8500, 9499, core.Options{Parallelism: 8})
		} else {
			oids, err = tbl.SelectRange(sim, "date1", 8500, 9499)
		}
		if err != nil {
			t.Fatal(err)
		}
		return sim.Stats(), oids
	}
	serialStats, serialOids := run(false)
	optStats, optOids := run(true)
	if serialStats != optStats {
		t.Errorf("instrumented Opts select changed simulated stats:\nserial %+v\nopts   %+v", serialStats, optStats)
	}
	sameOids(t, "instrumented", optOids, serialOids)
}
