package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// setValues returns one metric's value in every set of a workload.
func setValues(w *workloadResult, name string) []float64 {
	var out []float64
	for _, s := range w.Sets {
		if name == "fail_share" {
			out = append(out, s.FailShare)
			continue
		}
		for _, m := range s.Metrics {
			if m.Name == name && !m.Null {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// minSets is the number of sets a file needs per workload before -compare
// judges it: fewer do not show how far the file's own runs lie apart.
const minSets = 3

// verdict judges one metric of one workload: how far the new median is on
// the wrong side of the old one, as a share of the old, against the bound.
// When either file has fewer than minSets values, or its spread over its sets
// is wider than the bound, the files cannot say.
func verdict(spec metricSpec, old, new []float64) string {
	if len(old) < minSets || len(new) < minSets {
		return "unresolved"
	}
	o, n := median(old), median(new)
	worse := n - o // fail_share: absolute, the old share is 0 on a healthy run
	if spec.name != "fail_share" {
		if max(spread(old), spread(new)) > spec.bound {
			return "unresolved"
		}
		worse /= o
		if spec.higher {
			worse = -worse
		}
	}
	switch {
	case worse > spec.bound:
		return "worse"
	case worse < -spec.bound:
		return "better"
	}
	return "within"
}

// compareFiles prints one row per workload and end-to-end metric and reports
// whether any row is worse.
func compareFiles(w io.Writer, oldPath, newPath string) (anyWorse bool, err error) {
	old, err := readResult(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return false, err
	}
	if old.Schema != cur.Schema || old.Seed != cur.Seed || old.DurationS != cur.DurationS ||
		old.WarmupS != cur.WarmupS || old.Clients != cur.Clients || old.Traced || cur.Traced {
		return false, fmt.Errorf("not comparable: schema %d/%d seed %d/%d duration %g/%g warm-up %g/%g clients %d/%d traced %v/%v",
			old.Schema, cur.Schema, old.Seed, cur.Seed, old.DurationS, cur.DurationS,
			old.WarmupS, cur.WarmupS, old.Clients, cur.Clients, old.Traced, cur.Traced)
	}
	fmt.Fprintf(w, "old %s (%s)\nnew %s (%s)\n", oldPath, old.Env.Commit, newPath, cur.Env.Commit)
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %18s %8s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for i := range old.Workloads {
		ow := &old.Workloads[i]
		var nw *workloadResult
		for j := range cur.Workloads {
			if cur.Workloads[j].Name == ow.Name {
				nw = &cur.Workloads[j]
			}
		}
		if nw == nil {
			return false, fmt.Errorf("workload %s is missing from %s", ow.Name, newPath)
		}
		for _, spec := range compareSpecs {
			ov, nv := setValues(ow, spec.name), setValues(nw, spec.name)
			if spec.name == "ingest_mb_s" && len(ov) == 0 && len(nv) == 0 {
				continue // the workload sends no XML
			}
			v := verdict(spec, ov, nv)
			o, n := median(ov), median(nv)
			bound := fmt.Sprintf("%.0f%%", 100*spec.bound)
			ratioText := fmt.Sprintf("%.4f of %.4g", ratio(n, o), o)
			if spec.name == "fail_share" {
				bound, ratioText = fmt.Sprintf("+%g", spec.bound), fmt.Sprintf("%+.4f", n-o)
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %18s %8s  %s\n", ow.Name, spec.name, o, n, ratioText, bound, v)
			anyWorse = anyWorse || v == "worse"
		}
	}
	return anyWorse, nil
}
