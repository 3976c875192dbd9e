// Command perfbench is monetlite's benchmark: one process, one
// closed-loop client, driving the public monetlite API over a 1M-row
// item table and a 2000-row part table that it generates from -seed.
//
// Usage:
//
//	perfbench --workload point-lookup|dashboard|warehouse [--seed 1999]
//	          [--seconds 10] [--trace 0|1] [--out .bench_build/perfbench]
//	perfbench -compare [-bounds BENCHMARK.json] old.json new.json
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the traced measurement that yields the per-layer metrics and
// writes a Chrome trace. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the full report,
// with the machine block, plan choices and kernel table, goes to a JSON
// file under --out. README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"monetlite"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machineInfo names where a run was measured and how it planned.
type machineInfo struct {
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	GoVersion       string `json:"go_version"`
	CPUModel        string `json:"cpu_model"`
	PlanningProfile string `json:"planning_profile"`
}

// report is the full result file of one run.
type report struct {
	Schema     string         `json:"schema"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	Machine    machineInfo    `json:"machine"`
	ErrorRate  float64        `json:"error_rate"`
	Mismatches []string       `json:"mismatches,omitempty"`
	Plans      map[string]int `json:"plans,omitempty"`
	// Scaling is each query class's p50 at Parallel(1) and at
	// Parallel(nproc), from the traced run.
	Scaling map[string]classScaling `json:"scaling,omitempty"`
	Kernels []kernelRow             `json:"kernels,omitempty"`
	summary
}

const schemaVersion = "monetlite-perfbench/1"

// minOps is the fewest timed ops per run: at p90, ten samples lie
// beyond it.
const minOps = 100

func main() {
	workloadName := flag.String("workload", "", "workload: point-lookup, dashboard or warehouse")
	seed := flag.Uint64("seed", 1999, "seed of the generated rows and op parameters")
	seconds := flag.Int("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the report and trace files")
	compare := flag.Bool("compare", false, "compare two report files: perfbench -compare old.json new.json")
	bounds := flag.String("bounds", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare takes two report files")
			os.Exit(2)
		}
		regressed, err := compareReports(*bounds, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := writeJSON(path, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: report in %s\n", path)
	fmt.Println(string(line))
}

func run(w *workload, seed uint64, seconds int, traced bool, out string) (*report, error) {
	b := &bench{w: w, nproc: runtime.NumCPU()}
	if traced {
		b.tr = newTracer()
	}
	b.ds = generate(seed)
	b.src = newOpSource(w, seed)
	st, err := b.setup()
	if err != nil {
		return nil, err
	}
	if b.src.pool != nil {
		if b.refs, err = references(w, b.db, b.src.pool); err != nil {
			return nil, err
		}
	}
	rep := &report{
		Schema: schemaVersion, Workload: w.name, Seed: seed, Seconds: seconds,
		Machine: b.machine(),
	}
	if traced {
		rep.Trace = 1
	}
	d := time.Duration(seconds) * time.Second
	if !traced {
		op := b.runPlain(b.nproc, nil)
		warm := b.warmUp(op)
		ls := b.loop(d, minOps, op, nil)
		rep.Attempted, rep.Failed = warm.attempted+ls.attempted, warm.failed+ls.failed
		rep.Metrics = map[string]metric{
			"setup_s":          {st.setupS, "s"},
			"latency_p50_ms":   {ls.p50(), "ms"},
			"latency_p90_ms":   {quantile(ls.latMS, 0.9), "ms"},
			"throughput_ops_s": {ls.throughput(), "1/s"},
			"alloc_mb_per_op":  {float64(ls.allocBytes) / float64(ls.attempted) / 1e6, "MB"},
			"resident_mb":      {st.residentB / 1e6, "MB"},
		}
	} else {
		tr, err := b.traced(d, st)
		if err != nil {
			return nil, err
		}
		rep.Attempted, rep.Failed = tr.attempted, tr.failed
		rep.Metrics, rep.Plans, rep.Kernels, rep.Scaling = tr.metrics, tr.plans, tr.kernels, tr.scaling
		path := filepath.Join(out, fmt.Sprintf("%s-seed%d.trace.json", w.name, seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: chrome trace in %s\n", path)
	}
	rep.Correct = rep.Failed == 0
	rep.ErrorRate = float64(rep.Failed) / float64(rep.Attempted)
	rep.Mismatches = b.mismatches
	return rep, nil
}

// machine records the hardware, runtime and planning profile of a run.
func (b *bench) machine() machineInfo {
	m := machineInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
	}
	if plan, err := monetlite.Query(b.db.items).Plan(); err == nil {
		m.PlanningProfile = plan.Machine().Name
	}
	return m
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
