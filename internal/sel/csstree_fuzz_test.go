package sel

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/memsim"
)

// fuzzValues maps one byte to one key: 0x00 and 0xFF are MinInt32 and
// MaxInt32, everything else a small signed value, so inputs are dense
// in duplicates and in both domain extremes.
func fuzzValues(data []byte) []int32 {
	vals := make([]int32, len(data))
	for i, b := range data {
		switch b {
		case 0x00:
			vals[i] = math.MinInt32
		case 0xFF:
			vals[i] = math.MaxInt32
		default:
			vals[i] = int32(b) - 128
		}
	}
	return vals
}

// fuzzSeed is n keys cycling through the byte domain.
func fuzzSeed(n, stride int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * stride)
	}
	return data
}

// FuzzCSSRangePos checks the storage-ordered CSS-tree range select
// against ScanSelect's OIDs, byte for byte, on both sides of the
// sort/bitmap switch (SortRestores):
//
//   - RangePos returns exactly ScanSelect's OIDs, serially whatever
//     garbage the caller's bitmap held, and morsel-parallel with
//     100-row morsels, whose boundaries fall mid-word;
//   - the bitmap restoration alone does too, on every input;
//   - RangeSelect returns the same OIDs in value order;
//   - an instrumented run (small n) selects the same OIDs.
func FuzzCSSRangePos(f *testing.F) {
	old := core.MorselRows
	core.MorselRows = 100
	f.Cleanup(func() { core.MorselRows = old })
	f.Add([]byte{}, int32(0), int32(10)) // n = 0
	f.Add([]byte{1, 0xFF, 0x00, 0xFF, 7, 7}, int32(math.MinInt32), int32(math.MaxInt32))
	f.Add([]byte{0xFF, 0xFF, 0x80}, int32(math.MaxInt32), int32(math.MaxInt32))
	f.Add([]byte{0x00, 0x80, 0x00}, int32(math.MinInt32), int32(math.MinInt32))
	f.Add(fuzzSeed(100, 7), int32(5), int32(-5))       // inverted
	f.Add(fuzzSeed(100, 7), int32(200), int32(300))    // above every key
	f.Add(fuzzSeed(1000, 1), int32(-100), int32(-100)) // k = 4: sort path
	f.Add(fuzzSeed(1000, 1), int32(-100), int32(-99))  // k = 8: bitmap path
	f.Add(fuzzSeed(1000, 1), int32(-100), int32(100))  // k ≈ 800: bitmap path
	f.Add(fuzzSeed(4099, 3), int32(-128), int32(-1))   // n not a multiple of 64
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int32) {
		c := NewColumn(fuzzValues(data))
		n := c.Len()
		want := ScanSelect(nil, c, lo, hi)
		tree := BuildCSSTree(nil, c)

		bm := make([]uint64, BitmapWords(n))
		for i := range bm {
			bm[i] = ^uint64(0) // a dirty scratch must not leak into the result
		}
		if got := tree.RangePos(nil, lo, hi, &bm, core.Serial()); got == nil || !slices.Equal(got, want) {
			t.Fatalf("RangePos(%d, %d) = %v, want %v", lo, hi, got, want)
		}
		var grown []uint64
		if got := tree.RangePos(nil, lo, hi, &grown, core.Options{Parallelism: 4}); !slices.Equal(got, want) {
			t.Fatalf("parallel RangePos(%d, %d) = %v, want %v", lo, hi, got, want)
		}

		from, to := tree.bounds(nil, lo, hi)
		clear(bm)
		markBits(tree.oids[from:to], bm)
		dec := make([]bat.Oid, len(want))
		if k := decodeBits(bm, 0, n, dec); k != len(want) || !slices.Equal(dec, want) {
			t.Fatalf("bitmap restoration of [%d, %d) = %v, want %v", from, to, dec[:k], want)
		}

		byValue := tree.RangeSelect(nil, lo, hi)
		if !slices.IsSortedFunc(byValue, func(a, b bat.Oid) int {
			return cmp.Or(cmp.Compare(c.Vals[a], c.Vals[b]), cmp.Compare(a, b))
		}) {
			t.Fatalf("RangeSelect(%d, %d) not in value order: %v", lo, hi, byValue)
		}
		slices.Sort(byValue)
		if !slices.Equal(byValue, want) {
			t.Fatalf("RangeSelect(%d, %d) = %v, want %v", lo, hi, byValue, want)
		}

		if n <= 256 {
			sim := memsim.MustNew(memsim.Origin2000())
			st := BuildCSSTree(sim, NewColumn(c.Vals))
			var sbm []uint64
			if got := st.RangePos(sim, lo, hi, &sbm, core.Serial()); !slices.Equal(got, want) {
				t.Fatalf("instrumented RangePos(%d, %d) = %v, want %v", lo, hi, got, want)
			}
		}
	})
}

// TestCSSRangePosSeedsStraddleSwitch pins that FuzzCSSRangePos's seed
// corpus exercises both order-restoring paths.
func TestCSSRangePosSeedsStraddleSwitch(t *testing.T) {
	c := NewColumn(fuzzValues(fuzzSeed(1000, 1)))
	tree := BuildCSSTree(nil, c)
	for _, tc := range []struct {
		lo, hi int32
		sorts  bool
	}{{-100, -100, true}, {-100, -99, false}} {
		from, to := tree.bounds(nil, tc.lo, tc.hi)
		if got := SortRestores(to-from, c.Len()); got != tc.sorts {
			t.Errorf("[%d, %d]: k=%d SortRestores = %v, want %v", tc.lo, tc.hi, to-from, got, tc.sorts)
		}
	}
}

// TestCSSRangePosChargesSim: an instrumented bitmap-path select charges
// every access of the kernel to the simulator — two descents of one
// node per level, the k OID reads, the k bit-sets, the clear and decode
// sweeps over the bitmap's words, and the k output writes — plus CPU.
func TestCSSRangePosChargesSim(t *testing.T) {
	c := testColumn(4096, 1000, 23)
	sim := memsim.MustNew(memsim.Origin2000())
	tree := BuildCSSTree(sim, c)
	var bm []uint64
	sim.Reset()
	got := tree.RangePos(sim, 100, 349, &bm, core.Serial())
	k := len(got)
	if SortRestores(k, c.Len()) {
		t.Fatalf("k=%d takes the sort path", k)
	}
	st := sim.Stats()
	want := uint64(2*tree.Height() + 3*k + 2*len(bm))
	if st.Accesses != want {
		t.Errorf("instrumented RangePos made %d accesses, want %d (height %d, k %d, %d words)",
			st.Accesses, want, tree.Height(), k, len(bm))
	}
	if st.CPUNanos <= 0 {
		t.Error("instrumented RangePos charged no CPU work")
	}
}
