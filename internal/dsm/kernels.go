package dsm

import (
	"fmt"

	"monetlite/internal/bat"
)

// Into-caller-buffer kernels for the engine's fused pipelines: ranged
// selects that append matching storage positions into a caller-owned
// vector, positional refilters that compact a position vector in
// place, and positional gathers that append (or fill) column values
// through a position vector. None of them allocate when the caller's
// buffer has capacity, so a pipeline worker can reuse one small set of
// vectors across every morsel it drains — the whole point of
// cache-resident execution. All kernels are native-only: instrumented
// runs (sim != nil) take the materializing operators, which mirror
// every access into the simulator.

// SelectRangePos appends the storage positions in [from, to) whose
// numeric column value lies in [lo, hi] to dst, in ascending order —
// as int32 pipeline positions or as OIDs (the materializing select).
//
//monet:kernel
func SelectRangePos[P int32 | bat.Oid](c *Column, lo, hi int64, from, to int, dst []P) []P {
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		return SelectRangeSlice(v.V[from:to], lo, hi, from, dst)
	case *bat.I16Vec:
		return SelectRangeSlice(v.V[from:to], lo, hi, from, dst)
	case *bat.I32Vec:
		return SelectRangeSlice(v.V[from:to], lo, hi, from, dst)
	case *bat.I64Vec:
		return SelectRangeSlice(v.V[from:to], lo, hi, from, dst)
	default:
		for i := from; i < to; i++ {
			if x := c.Vec.Int(i); x >= lo && x <= hi {
				dst = append(dst, P(i))
			}
		}
		return dst
	}
}

// SelectCodePos appends the storage positions in [from, to) whose
// unsigned dictionary code equals code to dst — the §3.1 re-mapped
// string-equality scan. On the narrow code widths it is the range
// [code, code] over the stored values: the probe is pre-narrowed to
// the element type, which applies the same wraparound the codes are
// stored with.
//
//monet:kernel
func SelectCodePos[P int32 | bat.Oid](c *Column, code int64, from, to int, dst []P) []P {
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		k := int64(int8(code))
		return SelectRangeSlice(v.V[from:to], k, k, from, dst)
	case *bat.I16Vec:
		k := int64(int16(code))
		return SelectRangeSlice(v.V[from:to], k, k, from, dst)
	default:
		for i := from; i < to; i++ {
			if codeOf(c, i) == code {
				dst = append(dst, P(i))
			}
		}
		return dst
	}
}

// predBlock is the block length of the predicated select: a block is
// written straight into dst's spare capacity when it fits, otherwise
// into a stack buffer of this many positions that is then appended.
const predBlock = 512

// SelectRangeSlice appends base+i to dst for every vals[i] in
// [lo, hi], in ascending order. It is branch-free: each candidate is
// written unconditionally and the output index advances by the result
// of one unsigned comparison, x-lo <= hi-lo, so the loop costs the
// same at every selectivity instead of mispredicting on data-dependent
// branches. dst grows, through append, only when the matches overflow
// its spare capacity; an inverted range (hi < lo) selects nothing.
//
//monet:kernel
func SelectRangeSlice[T int8 | int16 | int32 | int64, P int32 | bat.Oid](vals []T, lo, hi int64, base int, dst []P) []P {
	if hi < lo {
		return dst
	}
	span := uint64(hi) - uint64(lo)
	var stage [predBlock]P
	for off := 0; off < len(vals); off += predBlock {
		blk := vals[off:min(off+predBlock, len(vals))]
		if spare := dst[len(dst):cap(dst)]; len(spare) >= len(blk) {
			dst = dst[:len(dst)+selectBlock(blk, lo, span, base+off, spare)]
		} else {
			dst = append(dst, stage[:selectBlock(blk, lo, span, base+off, stage[:])]...)
		}
	}
	return dst
}

// selectBlock is the predicated loop itself: out must hold len(vals)
// positions; it returns how many of them matched. It is kept out of
// line: inlined into SelectRangeSlice's two call sites, the loop's
// index and output count spill to the stack on every row.
//
//monet:kernel
//go:noinline
func selectBlock[T int8 | int16 | int32 | int64, P int32 | bat.Oid](vals []T, lo int64, span uint64, base int, out []P) int {
	k := 0
	for i, v := range vals {
		out[k] = P(base + i)
		if uint64(int64(v))-uint64(lo) <= span {
			k++
		}
	}
	return k
}

// FilterRangePos keeps the positions whose numeric column value lies
// in [lo, hi], compacting pos in place (a refilter pipeline stage).
//
//monet:kernel
func FilterRangePos(c *Column, lo, hi int64, pos []int32) []int32 {
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		return filterRangeSlice(v.V, lo, hi, pos)
	case *bat.I16Vec:
		return filterRangeSlice(v.V, lo, hi, pos)
	case *bat.I32Vec:
		return filterRangeSlice(v.V, lo, hi, pos)
	case *bat.I64Vec:
		return filterRangeSlice(v.V, lo, hi, pos)
	default:
		out := pos[:0]
		for _, p := range pos {
			if x := c.Vec.Int(int(p)); x >= lo && x <= hi {
				out = append(out, p)
			}
		}
		return out
	}
}

// FilterCodePos keeps the positions whose unsigned dictionary code
// equals code, compacting pos in place.
//
//monet:kernel
func FilterCodePos(c *Column, code int64, pos []int32) []int32 {
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		k := int64(int8(code))
		return filterRangeSlice(v.V, k, k, pos)
	case *bat.I16Vec:
		k := int64(int16(code))
		return filterRangeSlice(v.V, k, k, pos)
	default:
		out := pos[:0]
		for _, p := range pos {
			if codeOf(c, int(p)) == code {
				out = append(out, p)
			}
		}
		return out
	}
}

// filterRangeSlice is the predicated refilter: every position is
// written back unconditionally (the write index never passes the read
// index) and the write index advances by the unsigned range test, as
// in SelectRangeSlice.
//
//monet:kernel
func filterRangeSlice[T int8 | int16 | int32 | int64](vals []T, lo, hi int64, pos []int32) []int32 {
	if hi < lo {
		return pos[:0]
	}
	span := uint64(hi) - uint64(lo)
	k := 0
	for _, p := range pos {
		pos[k] = p
		if uint64(int64(vals[p]))-uint64(lo) <= span {
			k++
		}
	}
	return pos[:k]
}

// AppendIntsPos appends the widened integer values at the given
// positions to dst (signed, exactly like the materializing gather).
//
//monet:kernel
func AppendIntsPos(dst []int64, c *Column, pos []int32) []int64 {
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		return appendIntsPosSlice(dst, v.V, pos)
	case *bat.I16Vec:
		return appendIntsPosSlice(dst, v.V, pos)
	case *bat.I32Vec:
		return appendIntsPosSlice(dst, v.V, pos)
	case *bat.I64Vec:
		return appendIntsPosSlice(dst, v.V, pos)
	default:
		for _, p := range pos {
			dst = append(dst, c.Vec.Int(int(p)))
		}
		return dst
	}
}

//monet:kernel
func appendIntsPosSlice[T int8 | int16 | int32 | int64](dst []int64, vals []T, pos []int32) []int64 {
	for _, p := range pos {
		dst = append(dst, int64(vals[p]))
	}
	return dst
}

// AppendCodesPos appends the unsigned dictionary codes at the given
// positions to dst (the wraparound-corrected form the group keys use).
//
//monet:kernel
func AppendCodesPos(dst []int64, c *Column, pos []int32) []int64 {
	wrap := CodeWrap(c)
	at := len(dst)
	dst = AppendIntsPos(dst, c, pos)
	if wrap != 0 {
		for i := at; i < len(dst); i++ {
			if dst[i] < 0 {
				dst[i] += wrap
			}
		}
	}
	return dst
}

// AppendFloatsPos appends the float-widened values at the given
// positions to dst.
//
//monet:kernel
func AppendFloatsPos(dst []float64, c *Column, pos []int32) []float64 {
	switch v := c.Vec.(type) {
	case *bat.F64Vec:
		for _, p := range pos {
			dst = append(dst, v.V[p])
		}
		return dst
	case *bat.I8Vec:
		return appendFloatsPosSlice(dst, v.V, pos)
	case *bat.I16Vec:
		return appendFloatsPosSlice(dst, v.V, pos)
	case *bat.I32Vec:
		return appendFloatsPosSlice(dst, v.V, pos)
	case *bat.I64Vec:
		return appendFloatsPosSlice(dst, v.V, pos)
	default:
		for _, p := range pos {
			dst = append(dst, float64(c.Vec.Int(int(p))))
		}
		return dst
	}
}

//monet:kernel
func appendFloatsPosSlice[T int8 | int16 | int32 | int64](dst []float64, vals []T, pos []int32) []float64 {
	for _, p := range pos {
		dst = append(dst, float64(vals[p]))
	}
	return dst
}

// GatherFloatsPos fills dst[:len(pos)] with the float-widened values
// at the given positions — the scratch-buffer form AppendFloatsPos
// takes when the result is consumed immediately (measure operands).
//
//monet:kernel
func GatherFloatsPos(c *Column, pos []int32, dst []float64) []float64 {
	return AppendFloatsPos(dst[:0], c, pos)
}

// AppendStringsPos appends the decoded string values at the given
// positions to dst (dictionary decode, or direct string storage).
//
//monet:kernel
func AppendStringsPos(dst []string, c *Column, pos []int32) ([]string, error) {
	if c.Enc != nil {
		for _, p := range pos {
			dst = append(dst, c.Enc.Decode(c.Vec.Int(int(p))))
		}
		return dst, nil
	}
	sv, ok := c.Vec.(*bat.StrVec)
	if !ok {
		//monet:allow hotalloc cold mistyped-column error path, runs at most once per query
		return nil, fmt.Errorf("dsm: column %q is not a string column", c.Def.Name)
	}
	for _, p := range pos {
		dst = append(dst, sv.Str(int(p)))
	}
	return dst, nil
}
