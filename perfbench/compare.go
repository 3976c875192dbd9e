package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json that -compare reads: each
// end-to-end metric's direction and regression bound.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareReports prints every metric of two reports (or result lines)
// side by side and flags each end-to-end metric that moved by more than
// its bound: REGRESSED in the worse direction, improved in the better
// one. Per-layer metrics have no bound and are only listed. It reports
// whether any metric regressed.
func compareReports(boundsPath, oldPath, newPath string, w io.Writer) (bool, error) {
	var def benchDef
	if err := readJSON(boundsPath, &def); err != nil {
		return false, err
	}
	var old, cur summary
	if err := readJSON(oldPath, &old); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &cur); err != nil {
		return false, err
	}
	type rule struct {
		lower bool
		bound float64
	}
	rules := map[string]rule{}
	for _, m := range def.EndToEnd {
		rules[m.Name] = rule{lower: m.Better == "lower", bound: m.Bound}
	}
	names := make([]string, 0, len(cur.Metrics))
	for name := range cur.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(w, "%-44s %14s %14s %9s  %s\n", "metric", "old", "new", "change", "verdict")
	for _, name := range names {
		nv := cur.Metrics[name]
		ov, ok := old.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-44s %14s %14.6g %9s  new metric\n", name, "-", nv.Value, "")
			continue
		}
		change := math.NaN()
		if ov.Value != 0 {
			change = (nv.Value - ov.Value) / math.Abs(ov.Value)
		}
		verdict := ""
		if r, ok := rules[name]; ok {
			worse := change
			if !r.lower {
				worse = -change
			}
			switch {
			case math.IsNaN(worse):
				verdict = "no base"
			case worse > r.bound:
				verdict = fmt.Sprintf("REGRESSED (bound %.0f%%)", r.bound*100)
				regressed = true
			case -worse > r.bound:
				verdict = fmt.Sprintf("improved (bound %.0f%%)", r.bound*100)
			default:
				verdict = "within bound"
			}
		}
		pct := "-"
		if !math.IsNaN(change) {
			pct = fmt.Sprintf("%+.1f%%", change*100)
		}
		fmt.Fprintf(w, "%-44s %14.6g %14.6g %9s  %s\n", name, ov.Value, nv.Value, pct, verdict)
	}
	if old.Failed != cur.Failed {
		fmt.Fprintf(w, "failed ops: %d → %d\n", old.Failed, cur.Failed)
	}
	if cur.Failed > old.Failed {
		regressed = true
	}
	return regressed, nil
}
