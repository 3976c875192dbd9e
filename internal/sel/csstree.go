package sel

import (
	"math"
	"math/bits"
	"slices"

	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/memsim"
)

// CSSTree is the cache-line-conscious static B+-tree of the §3.2
// discussion ([Ron98]: "a B-tree with a block-size equal to the cache
// line size is optimal"): internal nodes hold exactly one cache line
// of separator keys, children are found by arithmetic instead of
// pointers, and the leaves are the sorted column itself. Each level
// of a descent therefore costs exactly one cache-line touch.
type CSSTree struct {
	col *Column
	m   int // keys per node = line size / 4

	// levels[0] is the sorted leaf keys; levels[k>0] holds, for each
	// node group of level k-1, its last key (the separators).
	levels [][]int32
	oids   []bat.Oid // leaf OIDs parallel to levels[0]

	bases    []uint64 // simulated base per level
	oidsBase uint64
	bitsBase uint64 // simulated home of the caller's order-restoring bitmap
}

// BuildCSSTree constructs the tree with node size equal to the
// machine's L1 cache line (the Rönström design point). With a nil sim
// the Origin2000's 32-byte line (8 keys) is used.
func BuildCSSTree(sim *memsim.Sim, c *Column) *CSSTree {
	line := 32
	if sim != nil {
		line = sim.Machine().L1.LineSize
	}
	m := line / 4
	if m < 2 {
		m = 2
	}
	es := sortedEntries(c)
	leaf := make([]int32, len(es))
	oids := make([]bat.Oid, len(es))
	for i, e := range es {
		leaf[i] = e.val
		oids[i] = e.oid
	}
	t := &CSSTree{col: c, m: m, levels: [][]int32{leaf}, oids: oids}
	for len(t.levels[len(t.levels)-1]) > m {
		below := t.levels[len(t.levels)-1]
		var seps []int32
		for lo := 0; lo < len(below); lo += m {
			hi := lo + m
			if hi > len(below) {
				hi = len(below)
			}
			seps = append(seps, below[hi-1])
		}
		t.levels = append(t.levels, seps)
	}
	c.Bind(sim)
	if sim != nil {
		t.bases = make([]uint64, len(t.levels))
		for i, lv := range t.levels {
			t.bases[i] = sim.Alloc(4 * len(lv))
			for j := range lv {
				sim.Write(t.bases[i]+uint64(j)*4, 4)
			}
		}
		t.oidsBase = sim.Alloc(4 * len(oids))
		for j := range oids {
			sim.Write(t.oidsBase+uint64(j)*4, 4)
		}
		t.bitsBase = sim.Alloc(8 * BitmapWords(len(oids)))
	}
	return t
}

// touchNode mirrors reading one node (one cache line) of a level,
// charging the in-node search work.
func (t *CSSTree) touchNode(sim *memsim.Sim, level, node int) {
	if sim == nil {
		return
	}
	lo := node * t.m
	hi := lo + t.m
	if hi > len(t.levels[level]) {
		hi = len(t.levels[level])
	}
	if lo < hi {
		sim.Read(t.bases[level]+uint64(lo)*4, 4*(hi-lo))
		sim.AddCPU(hi-lo, sim.Machine().Cost.WScanBUN/4)
	}
}

// lowerBound descends to the index of the first leaf key ≥ key.
func (t *CSSTree) lowerBound(sim *memsim.Sim, key int32) int {
	node := 0
	for level := len(t.levels) - 1; level > 0; level-- {
		lv := t.levels[level]
		lo := node * t.m
		hi := lo + t.m
		if hi > len(lv) {
			hi = len(lv)
		}
		t.touchNode(sim, level, node)
		p := lo
		for p < hi && lv[p] < key {
			p++
		}
		if p == hi { // key beyond every separator: rightmost child
			p = hi - 1
		}
		node = p
	}
	// Leaf node scan.
	leaf := t.levels[0]
	lo := node * t.m
	hi := lo + t.m
	if hi > len(leaf) {
		hi = len(leaf)
	}
	t.touchNode(sim, 0, node)
	p := lo
	for p < hi && leaf[p] < key {
		p++
	}
	return p
}

// Lookup returns the OIDs of all leaf entries equal to key. The
// result is never nil: engine bindings read a nil OID list as "all
// rows", so an empty match must stay a non-nil empty slice.
func (t *CSSTree) Lookup(sim *memsim.Sim, key int32) []bat.Oid {
	out := []bat.Oid{}
	if len(t.levels[0]) == 0 {
		return out
	}
	leaf := t.levels[0]
	for i := t.lowerBound(sim, key); i < len(leaf) && leaf[i] == key; i++ {
		if sim != nil {
			sim.Read(t.bases[0]+uint64(i)*4, 4)
			sim.Read(t.oidsBase+uint64(i)*4, 4)
			sim.AddCPU(1, sim.Machine().Cost.WScanBUN/4)
		}
		out = append(out, t.oids[i])
	}
	return out
}

// bounds returns the leaf index range [from, to) holding the keys in
// [lo, hi]. Both ends are found by descent — one cache line per level
// each — so the leaf walk between them compares no keys. An inverted
// range yields an empty range.
func (t *CSSTree) bounds(sim *memsim.Sim, lo, hi int32) (from, to int) {
	n := len(t.levels[0])
	if n == 0 || lo > hi {
		return 0, 0
	}
	from = t.lowerBound(sim, lo)
	to = n
	if hi < math.MaxInt32 {
		to = t.lowerBound(sim, hi+1)
	}
	return from, to
}

// leafOIDs copies the OIDs of the leaf entries [from, to) — value
// order — into a result sized once from the two bounds, never nil.
func (t *CSSTree) leafOIDs(sim *memsim.Sim, from, to int) []bat.Oid {
	out := make([]bat.Oid, to-from)
	copy(out, t.oids[from:to])
	if sim != nil {
		for i := from; i < to; i++ {
			sim.Read(t.oidsBase+uint64(i)*4, 4)
		}
		sim.AddCPU(to-from, sim.Machine().Cost.WScanBUN/4)
	}
	return out
}

// RangeSelect returns the OIDs of all values in [lo, hi] in value
// order: two descents plus a sequential leaf walk (the cache-friendly
// part of the design). Like Lookup, it never returns nil — nil means
// "all rows" downstream.
func (t *CSSTree) RangeSelect(sim *memsim.Sim, lo, hi int32) []bat.Oid {
	from, to := t.bounds(sim, lo, hi)
	return t.leafOIDs(sim, from, to)
}

// SortRestores reports whether restoring storage order to k of n OIDs
// is cheaper by comparison sort (k·log2 k compares) than by a bitmap
// sweep (n/64 words) — true for point lookups, false once a range
// selects more than a sliver of the column. A fixed cost comparison,
// shared by RangePos and the engine's cost model so both take one
// path.
func SortRestores(k, n int) bool {
	return float64(k)*math.Log2(float64(k)+1) < float64(n)/64
}

// BitmapWords is the length of an n-bit bitmap in 64-bit words.
func BitmapWords(n int) int { return (n + 63) / 64 }

// RangePos returns the OIDs of all values in [lo, hi] in storage order,
// byte-identical to ScanSelect. The leaf walk yields them in value
// order; a handful (SortRestores) are sorted, otherwise each sets one
// bit of an n-bit bitmap — n/8 bytes, 128 KB and L2-resident at 1M
// rows — that decodes into ascending OIDs. *scratch is the caller's
// bitmap, kept between calls: it is grown when too short and cleared
// before use. A native run with more than one worker decodes
// morsel-parallel, per-morsel counts and a prefix sum placing each
// morsel's OIDs, as the scan-select fills its output.
func (t *CSSTree) RangePos(sim *memsim.Sim, lo, hi int32, scratch *[]uint64, opt core.Options) []bat.Oid {
	from, to := t.bounds(sim, lo, hi)
	n := len(t.oids)
	if SortRestores(to-from, n) {
		out := t.leafOIDs(sim, from, to)
		slices.Sort(out)
		if sim != nil {
			k := float64(len(out))
			sim.AddCPU(int(k*math.Log2(k+2)), sim.Machine().Cost.WScanBUN/8)
		}
		return out
	}
	words := BitmapWords(n)
	if cap(*scratch) < words {
		*scratch = make([]uint64, words)
	}
	bm := (*scratch)[:words]
	clear(bm)
	markBits(t.oids[from:to], bm)
	out := make([]bat.Oid, to-from)
	if sim != nil {
		t.chargeBits(sim, from, to)
	}
	workers := opt.WorkersFor(n)
	if sim != nil || workers <= 1 {
		decodeBits(bm, 0, n, out)
		return out
	}
	starts := make([]int, core.MorselsOf(n))
	core.ForMorsels(workers, n, func(m, lo, hi int) { starts[m] = countBits(bm, lo, hi) })
	at := 0
	for m, c := range starts {
		starts[m], at = at, at+c
	}
	core.ForMorsels(workers, n, func(m, lo, hi int) { decodeBits(bm, lo, hi, out[starts[m]:]) })
	return out
}

// chargeBits mirrors RangePos's bitmap path into the simulator: the
// clear sweep over the words, a read of each of the k leaf OIDs and a
// write of the word it sets, the decode sweep, and the k-OID output.
func (t *CSSTree) chargeBits(sim *memsim.Sim, from, to int) {
	words, k := BitmapWords(len(t.oids)), to-from
	for w := 0; w < words; w++ {
		sim.Write(t.bitsBase+uint64(w)*8, 8)
	}
	for i := from; i < to; i++ {
		sim.Read(t.oidsBase+uint64(i)*4, 4)
		sim.Write(t.bitsBase+uint64(t.oids[i]>>6)*8, 8)
	}
	for w := 0; w < words; w++ {
		sim.Read(t.bitsBase+uint64(w)*8, 8)
	}
	out := sim.Alloc(4 * k)
	for i := 0; i < k; i++ {
		sim.Write(out+uint64(i)*4, 4)
	}
	sim.AddCPU(2*words+2*k, sim.Machine().Cost.WScanBUN/4)
}

// markBits sets bit o of bm for every OID o.
//
//monet:kernel
func markBits(oids []bat.Oid, bm []uint64) {
	for _, o := range oids {
		bm[o>>6] |= 1 << (o & 63)
	}
}

// countBits returns the number of set bits of bm in the bit range
// [lo, hi).
//
//monet:kernel
func countBits(bm []uint64, lo, hi int) int {
	k := 0
	for w := lo >> 6; w<<6 < hi; w++ {
		k += bits.OnesCount64(bm[w] & wordMask(w, lo, hi))
	}
	return k
}

// decodeBits writes the set bits of bm in the bit range [lo, hi) to
// dst as ascending OIDs and returns how many it wrote. Ranges that
// share a word may decode concurrently: the bitmap is only read.
//
//monet:kernel
func decodeBits(bm []uint64, lo, hi int, dst []bat.Oid) int {
	at := 0
	for w := lo >> 6; w<<6 < hi; w++ {
		x := bm[w] & wordMask(w, lo, hi)
		base := bat.Oid(w << 6)
		for x != 0 {
			dst[at] = base + bat.Oid(bits.TrailingZeros64(x))
			at++
			x &= x - 1
		}
	}
	return at
}

// wordMask selects the bits of word w that lie in [lo, hi).
func wordMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if base := w << 6; lo > base {
		m <<= uint(lo - base)
	}
	if end := (w + 1) << 6; hi < end {
		m &= ^uint64(0) >> uint(end-hi)
	}
	return m
}

// Height returns the number of levels (diagnostics: a descent touches
// exactly Height cache lines).
func (t *CSSTree) Height() int { return len(t.levels) }
