package dsm

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"monetlite/internal/bat"
)

// fuzzVec decodes fuzz bytes into a numeric vector of the width picked
// by width%4 (little-endian int8, int16, int32 or int64 values).
func fuzzVec(data []byte, width uint8) bat.Vector {
	switch width % 4 {
	case 0:
		vals := make([]int8, len(data))
		for i, b := range data {
			vals[i] = int8(b)
		}
		return bat.NewI8(vals)
	case 1:
		vals := make([]int16, len(data)/2)
		for i := range vals {
			vals[i] = int16(binary.LittleEndian.Uint16(data[2*i:]))
		}
		return bat.NewI16(vals)
	case 2:
		vals := make([]int32, len(data)/4)
		for i := range vals {
			vals[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		return bat.NewI32(vals)
	default:
		vals := make([]int64, len(data)/8)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		return bat.NewI64(vals)
	}
}

// fuzzBytes encodes values the way fuzzVec decodes them at width%4.
func fuzzBytes(width uint8, vals ...int64) []byte {
	size := 1 << (width % 4)
	out := make([]byte, 0, size*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))[:len(out)+size]
	}
	return out
}

// fuzzRows maps two fuzz bytes onto a row range [from, to) of n rows.
func fuzzRows(n int, fromRaw, toRaw uint8) (from, to int) {
	if n > 0 {
		from = int(fromRaw) % (n + 1)
	}
	to = from
	if n > from {
		to = from + int(toRaw)%(n-from+1)
	}
	return from, to
}

// fuzzCode clamps a probe code into the unsigned range of the vector's
// width, matching the code kernels' contract (the narrow fast paths
// pre-narrow the probe).
func fuzzCode(vec bat.Vector, code int64) int64 {
	switch vec.Type() {
	case bat.TI8:
		return code & 0xff
	case bat.TI16:
		return code & 0xffff
	}
	return code
}

// checkAppendKernel runs an appending select kernel into three caller
// buffers, each holding a two-position prefix: one with no spare
// capacity (the growth path), one with room for exactly the matches,
// and one with room for every candidate row (the in-place path). Each
// must return the prefix untouched followed by want.
func checkAppendKernel(t *testing.T, name string, want []int32, rows int, run func(dst []int32) []int32) {
	t.Helper()
	prefix := []int32{-7, -9}
	for _, spare := range []int{0, len(want), rows} {
		dst := make([]int32, len(prefix), len(prefix)+spare)
		copy(dst, prefix)
		got := run(dst)
		if !slices.Equal(got[:min(len(got), len(prefix))], prefix) {
			t.Fatalf("%s (spare %d): caller's buffer prefix clobbered: %v", name, spare, got[:min(len(got), len(prefix))])
		}
		if !slices.Equal(got[len(prefix):], want) {
			t.Fatalf("%s (spare %d): got %v, oracle %v", name, spare, got[len(prefix):], want)
		}
	}
}

// FuzzSelectRangePos checks the positional range-select kernel, at
// every stored width, against a materializing oracle that re-reads the
// column through the generic Vector.Int accessor:
//
//   - exactly the positions whose value lies in [lo, hi] are emitted,
//     and an inverted range (lo > hi) emits none;
//   - positions come out ascending, restricted to [from, to);
//   - the kernel appends to (and returns) the caller's buffer — an
//     existing prefix must survive untouched, whether the buffer must
//     grow or has room.
func FuzzSelectRangePos(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(-10), int64(10), uint8(0), uint8(255), uint8(2))
	f.Add([]byte{}, int64(0), int64(0), uint8(0), uint8(0), uint8(1))
	f.Add([]byte{0x80, 0x7f, 0x00, 0xff}, int64(-128), int64(127), uint8(0), uint8(4), uint8(0))
	// The unsigned test x-lo <= hi-lo at the edges of int64: the full
	// domain, a one-value range at the minimum, and inverted ranges.
	for _, w := range []uint8{0, 3} {
		ext := fuzzBytes(w, math.MinInt64, -1, 0, 1, math.MaxInt64)
		f.Add(ext, int64(math.MinInt64), int64(math.MaxInt64), uint8(0), uint8(255), w)
		f.Add(ext, int64(math.MinInt64), int64(math.MinInt64), uint8(0), uint8(255), w)
		f.Add(ext, int64(10), int64(-10), uint8(0), uint8(255), w)
		f.Add(ext, int64(math.MaxInt64), int64(math.MinInt64), uint8(0), uint8(255), w)
	}
	// lo = hi at each width's extremes.
	for w, bits := range []uint{8, 16, 32, 64} {
		lo, hi := int64(-1)<<(bits-1), int64(uint64(1)<<(bits-1)-1)
		ext := fuzzBytes(uint8(w), lo, hi, 0, lo, hi)
		f.Add(ext, lo, lo, uint8(0), uint8(255), uint8(w))
		f.Add(ext, hi, hi, uint8(0), uint8(255), uint8(w))
	}
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int64, fromRaw, toRaw, width uint8) {
		vec := fuzzVec(data, width)
		from, to := fuzzRows(vec.Len(), fromRaw, toRaw)
		col := &Column{Def: ColumnDef{Name: "v", Type: LInt}, Vec: vec}

		// Materializing oracle over the generic accessor.
		want := []int32{}
		for i := from; i < to; i++ {
			if x := vec.Int(i); x >= lo && x <= hi {
				want = append(want, int32(i))
			}
		}
		if lo > hi && len(want) != 0 {
			t.Fatalf("oracle selected %d rows of the inverted range [%d,%d]", len(want), lo, hi)
		}
		checkAppendKernel(t, "SelectRangePos", want, to-from, func(dst []int32) []int32 {
			return SelectRangePos(col, lo, hi, from, to, dst)
		})
	})
}

// FuzzSelectCodePos checks the positional dictionary-code select
// kernel against a materializing oracle that re-reads every position
// through codeOf (the single source of the wraparound invariant):
//
//   - exactly the positions in [from, to) whose unsigned code equals
//     the probe are emitted, ascending;
//   - the narrow I8/I16 fast paths (which pre-narrow the probe and
//     compare at machine width) agree with the generic decode;
//   - the kernel appends to the caller's buffer — an existing prefix
//     must survive untouched.
func FuzzSelectCodePos(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 1}, int64(2), uint8(0), uint8(255), uint8(0))
	f.Add([]byte{}, int64(0), uint8(0), uint8(0), uint8(1))
	f.Add([]byte{0xff, 0x00, 0x80, 0xff}, int64(255), uint8(0), uint8(4), uint8(0))
	f.Add([]byte{0x01, 0xff, 0x01, 0xff}, int64(0xff01), uint8(0), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, code int64, fromRaw, toRaw, width uint8) {
		vec := fuzzVec(data, width)
		from, to := fuzzRows(vec.Len(), fromRaw, toRaw)
		col := &Column{Def: ColumnDef{Name: "v", Type: LString}, Vec: vec}
		code = fuzzCode(vec, code)

		// Materializing oracle over the shared wraparound decoder.
		want := []int32{}
		for i := from; i < to; i++ {
			if codeOf(col, i) == code {
				want = append(want, int32(i))
			}
		}
		checkAppendKernel(t, "SelectCodePos", want, to-from, func(dst []int32) []int32 {
			return SelectCodePos(col, code, from, to, dst)
		})
	})
}

// FuzzFilterPos checks the positional refilter kernels, at every
// stored width, against materializing oracles over Vector.Int (range)
// and codeOf (dictionary code):
//
//   - exactly the input positions that pass the predicate survive, in
//     input order (positions may repeat and need not ascend), and an
//     inverted range keeps none;
//   - the kernels compact the caller's position vector in place and
//     leave the buffer before it untouched.
func FuzzFilterPos(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 3, 3, 7, 1}, int64(2), int64(6), int64(3), uint8(0))
	f.Add([]byte{}, []byte{}, int64(0), int64(0), int64(0), uint8(1))
	f.Add([]byte{0x80, 0x7f, 0x00, 0xff}, []byte{3, 2, 1, 0}, int64(-128), int64(127), int64(0xff), uint8(0))
	f.Add(fuzzBytes(3, math.MinInt64, 0, math.MaxInt64), []byte{2, 1, 0}, int64(math.MinInt64), int64(math.MaxInt64), int64(0), uint8(3))
	f.Add(fuzzBytes(2, math.MinInt32, 0, math.MaxInt32), []byte{0, 1, 2}, int64(5), int64(-5), int64(0), uint8(2))
	f.Add(fuzzBytes(1, 1, -1, 1, -1), []byte{0, 1, 2, 3}, int64(-1), int64(-1), int64(0xffff), uint8(1))
	f.Fuzz(func(t *testing.T, data, posData []byte, lo, hi, code int64, width uint8) {
		vec := fuzzVec(data, width)
		n := vec.Len()
		prefix := []int32{-3, -5}
		in := []int32{}
		if n > 0 {
			for _, b := range posData {
				in = append(in, int32(int(b)%n))
			}
		}
		check := func(name string, keep func(p int32) bool, run func(pos []int32) []int32) {
			want := []int32{}
			for _, p := range in {
				if keep(p) {
					want = append(want, p)
				}
			}
			buf := append(slices.Clone(prefix), in...)
			got := run(buf[len(prefix):])
			if !slices.Equal(buf[:len(prefix)], prefix) {
				t.Fatalf("%s clobbered the buffer before pos: %v", name, buf[:len(prefix)])
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s (width %d): got %v, oracle %v", name, vec.Width(), got, want)
			}
			if len(got) > 0 && &got[0] != &buf[len(prefix)] {
				t.Fatalf("%s did not compact in place", name)
			}
		}

		rangeCol := &Column{Def: ColumnDef{Name: "v", Type: LInt}, Vec: vec}
		check("FilterRangePos", func(p int32) bool {
			x := vec.Int(int(p))
			return x >= lo && x <= hi
		}, func(pos []int32) []int32 { return FilterRangePos(rangeCol, lo, hi, pos) })

		codeCol := &Column{Def: ColumnDef{Name: "v", Type: LString}, Vec: vec}
		code = fuzzCode(vec, code)
		check("FilterCodePos", func(p int32) bool { return codeOf(codeCol, int(p)) == code },
			func(pos []int32) []int32 { return FilterCodePos(codeCol, code, pos) })
	})
}
