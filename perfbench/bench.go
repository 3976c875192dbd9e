package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"monetlite"
)

// bench is one run: a workload over the rows of one seed.
type bench struct {
	w     *workload
	ds    *dataset
	src   *opSource
	db    *db
	refs  [][]*monetlite.QueryResult // [pool entry][query]
	nproc int
	tr    *tracer
	// mismatches keeps the first few wrong results for the report.
	mismatches []string
}

// allocMeter reads the runtime's cumulative heap-allocation counter.
type allocMeter struct{ s []metrics.Sample }

func newAllocMeter() *allocMeter {
	return &allocMeter{s: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (m *allocMeter) read() uint64 {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64()
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// setupStats are the medians over the set-up repetitions.
type setupStats struct {
	setupS, decomposeS, coldMS float64
	residentB                  float64
}

// setupReps is how often a run loads the database from its rows; the
// reported set-up time is the median.
const setupReps = 5

// setup loads the database setupReps times from the same rows. Each
// repetition decomposes both tables into a fresh database and runs the
// cold first op of every query class, which pays the lazy CSS-tree
// builds and first-touch faults. The last database is kept.
func (b *bench) setup() (setupStats, error) {
	base := liveHeap()
	itemRecs, partRecs := b.ds.itemRecords(), b.ds.partRecords()
	p := b.src.first()
	var setups, decomps, colds []float64
	for rep := 0; rep < setupReps; rep++ {
		b.db = nil
		runtime.GC()
		h := b.tr.begin("setup", -1, -1)
		t0 := time.Now()
		hd := b.tr.begin("dsm.decompose", -1, h)
		d, err := decompose(itemRecs, partRecs)
		b.tr.end(hd)
		if err != nil {
			return setupStats{}, err
		}
		t1 := time.Now()
		for _, q := range b.w.queries {
			hq := b.tr.begin("cold."+q.name, -1, h)
			_, err := q.build(d, p).Parallel(b.nproc).Run()
			b.tr.end(hq)
			if err != nil {
				return setupStats{}, fmt.Errorf("cold %s: %w", q.name, err)
			}
		}
		t2 := time.Now()
		b.tr.end(h)
		b.db = d
		setups = append(setups, t2.Sub(t0).Seconds())
		decomps = append(decomps, t1.Sub(t0).Seconds())
		colds = append(colds, float64(t2.Sub(t1).Nanoseconds())/1e6)
	}
	itemRecs, partRecs = nil, nil // the rows are not part of the database
	resident := float64(liveHeap()) - float64(base)
	return setupStats{
		setupS: median(setups), decomposeS: median(decomps), coldMS: median(colds),
		residentB: resident,
	}, nil
}

// check verifies one op's results: against the row oracle for lookups,
// byte for byte against the pool entry's reference otherwise.
func (b *bench) check(p params, ref int, res []*monetlite.QueryResult) error {
	if ref < 0 {
		return b.ds.checkLookup(p, res[0])
	}
	for j, r := range res {
		if err := sameResult(r, b.refs[ref][j]); err != nil {
			return fmt.Errorf("%s %+v: %w", b.w.queries[j].name, p, err)
		}
	}
	return nil
}

// opFunc runs one op and returns one result per query of the workload.
type opFunc func(op int, p params) ([]*monetlite.QueryResult, error)

// runPlain is the measured op: each query through the public builder at
// the given parallelism. When perQuery is non-nil, each query's latency
// in ms is appended to perQuery[query].
func (b *bench) runPlain(par int, perQuery [][]float64) opFunc {
	out := make([]*monetlite.QueryResult, len(b.w.queries))
	return func(_ int, p params) ([]*monetlite.QueryResult, error) {
		for i, q := range b.w.queries {
			t0 := time.Now()
			r, err := q.build(b.db, p).Parallel(par).Run()
			if perQuery != nil {
				perQuery[i] = append(perQuery[i], float64(time.Since(t0).Nanoseconds())/1e6)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.name, err)
			}
			out[i] = r
		}
		return out, nil
	}
}

// Before the timed loop, a run collects the garbage of set-up and of the
// references, then issues untimed ops for warmUpTime and at least
// warmUpOps, so that the heap and the GC pacer have settled under the
// measured op. Those ops are checked like the timed ones.
const (
	warmUpTime = time.Second
	warmUpOps  = 3
)

func (b *bench) warmUp(run opFunc) loopStats {
	runtime.GC()
	return b.loop(warmUpTime, warmUpOps, run, nil)
}

// loopStats summarizes one closed-loop measurement.
type loopStats struct {
	latMS             []float64 // per successful op, in issue order
	allocBytes        uint64
	attempted, failed int
}

// loop is the closed-loop client: it issues the next op only when the
// previous one has returned, until d has passed and at least minOps ops
// ran. Each op is timed from issue to return; the check of its result,
// the allocation reads and after (when non-nil) sit outside that
// interval.
func (b *bench) loop(d time.Duration, minOps int, run opFunc, after func()) loopStats {
	var st loopStats
	am := newAllocMeter()
	start := time.Now()
	for op := 0; st.attempted < minOps || time.Since(start) < d; op++ {
		p, ref := b.src.take()
		a0 := am.read()
		t0 := time.Now()
		res, err := run(op, p)
		el := time.Since(t0)
		a1 := am.read()
		st.attempted++
		st.allocBytes += a1 - a0
		if err == nil {
			err = b.check(p, ref, res)
		}
		if err == nil && after != nil {
			after()
		}
		if err != nil {
			st.failed++
			if len(b.mismatches) < 5 {
				b.mismatches = append(b.mismatches, err.Error())
			}
			continue
		}
		st.latMS = append(st.latMS, float64(el.Nanoseconds())/1e6)
	}
	return st
}

func (st loopStats) p50() float64 { return quantile(st.latMS, 0.5) }

// The throughput is measured over consecutive blocks of equally many
// ops, and the median block is reported, so that a stall from outside
// the process (another tenant of the host, a descheduled vCPU) moves the
// few blocks it lands in rather than the whole figure. A run has at
// least minThroughputBlocks blocks; when it has more than
// opsPerThroughputBlock ops per block, it is cut into blocks of that
// many ops instead. Stalls on a shared host last milliseconds, longer
// than a point lookup, so only blocks of a few milliseconds of timed
// work leave most blocks clear of them.
const (
	minThroughputBlocks   = 10
	opsPerThroughputBlock = 256
)

// throughput returns completed ops per second of timed execution: the
// median over the run's blocks of consecutive ops.
func (st loopStats) throughput() float64 {
	n := len(st.latMS)
	blocks := max(minThroughputBlocks, n/opsPerThroughputBlock)
	var rates []float64
	for b := 0; b < blocks; b++ {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		ms := 0.0
		for _, v := range st.latMS[lo:hi] {
			ms += v
		}
		if ms > 0 {
			rates = append(rates, float64(hi-lo)/ms*1e3)
		}
	}
	return median(rates)
}

// quantile is the linearly interpolated q-quantile of xs (0 if empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
