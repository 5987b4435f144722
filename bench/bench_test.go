package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-tests hold the
// program to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// lineNames returns the names and units of the result line of one set.
func lineNames(t *testing.T, name string, s *setResult) map[string]string {
	t.Helper()
	line, _ := contractLine(&resultFile{Workloads: []workloadResult{{Name: name, Sets: []setResult{*s}}}})
	var out struct {
		Metrics map[string]struct{ Unit string }
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("%s: result line %q: %v", name, line, err)
	}
	got := map[string]string{}
	for n, m := range out.Metrics {
		got[n] = m.Unit
	}
	return got
}

// sameNames fails unless got and want hold the same name/unit pairs, and
// names both the missing and the unexpected ones.
func sameNames(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for name, unit := range got {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: reports %s, which BENCHMARK.json does not list", what, name)
		case unit != w:
			t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", what, name, unit, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: BENCHMARK.json lists %s, which is not reported", what, name)
		}
	}
}

// TestSmokeMatchesBenchmarkJSON runs every workload for a moment, end to end
// and traced, and holds the names and units of the result line against
// BENCHMARK.json in both directions. What is printed beyond the result line
// is exactly outsideContract, and ingest_mb_s only where XML is sent.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	has := func(s *setResult, name string) bool {
		for _, m := range s.Metrics {
			if m.Name == name {
				return true
			}
		}
		return false
	}
	cfg := runConfig{seconds: 0.3, warmup: 100 * time.Millisecond, setupReps: 1, batchBytes: 1 << 20}
	for _, w := range b.Workloads {
		spec, ok := findWorkload(w.Name)
		if !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the program does not have", w.Name)
			continue
		}
		in, setupS, err := setUpMedian(spec, 1, cfg.setupReps)
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		s := runEndToEnd(in, setupS, cfg)
		if s.Failed != 0 || s.Attempted == 0 {
			t.Errorf("%s: %d of %d requests failed: %s", w.Name, s.Failed, s.Attempted, s.Error)
		}
		sameNames(t, w.Name, lineNames(t, w.Name, s), e2e)
		if sendsXML := w.Name == "stream-feed" || w.Name == "doc-churn"; has(s, "ingest_mb_s") != sendsXML {
			t.Errorf("%s: ingest_mb_s printed: %v, XML sent: %v", w.Name, !sendsXML, sendsXML)
		}
		s, err = runTraced(in, spec, 1, cfg, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if s.Failed != 0 || s.Attempted == 0 {
			t.Errorf("%s traced: %d of %d operations failed: %s", w.Name, s.Failed, s.Attempted, s.Error)
		}
		sameNames(t, w.Name+" traced", lineNames(t, w.Name, s), layers)
		for name := range outsideContract {
			if name != "ingest_mb_s" && !has(s, name) {
				t.Errorf("%s traced: %s is not printed", w.Name, name)
			}
		}
	}
}

// TestContractLine: the result line speaks for every workload and set.
func TestContractLine(t *testing.T) {
	set := func(failed int, p50 float64, null bool) setResult {
		return setResult{Attempted: 10, Failed: failed, Metrics: []metric{
			{Name: "latency_p50_ms", Unit: "ms", Value: p50, Null: null},
			{Name: "ingest_mb_s", Unit: "MB/s", Value: 1},
		}}
	}
	type line struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value *float64 }
	}
	parse := func(rf *resultFile) (line, bool) {
		text, correct := contractLine(rf)
		var l line
		if err := json.Unmarshal([]byte(text), &l); err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		return l, correct
	}

	one := &resultFile{Workloads: []workloadResult{{Name: "a", Sets: []setResult{set(0, 3, false), set(0, 1, false), set(0, 2, true)}}}}
	l, correct := parse(one)
	if !correct || !l.Correct || l.Attempted != 30 || l.Failed != 0 {
		t.Errorf("one healthy workload: %+v", l)
	}
	if v := l.Metrics["latency_p50_ms"].Value; len(l.Metrics) != 1 || v == nil || *v != 2 {
		t.Errorf("want the median 2 of the sets that have a number under the bare name, and nothing else: %+v", l.Metrics)
	}

	two := &resultFile{Workloads: []workloadResult{
		{Name: "a", Sets: []setResult{set(1, 3, false)}},
		{Name: "b", Sets: []setResult{set(0, 5, true)}},
	}}
	l, correct = parse(two)
	if correct || l.Correct || l.Attempted != 20 || l.Failed != 1 {
		t.Errorf("a failure in the first workload must reach the line: %+v", l)
	}
	if v := l.Metrics["a.latency_p50_ms"].Value; v == nil || *v != 3 {
		t.Errorf("a.latency_p50_ms: %+v", l.Metrics)
	}
	if m, ok := l.Metrics["b.latency_p50_ms"]; !ok || m.Value != nil {
		t.Errorf("a percentile without enough samples must be null: %+v", l.Metrics)
	}
}

// TestSpecsMatchBenchmarkJSON keeps the bounds and directions -compare uses
// equal to the ones BENCHMARK.json states.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndSpecs))
	}
	for i, m := range b.EndToEnd {
		s := endToEndSpecs[i]
		if m.Name != s.name || m.Unit != s.unit || (m.Better == "higher") != s.higher || m.Bound != s.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, s)
		}
	}
}

func requestHash(sc scenario) [32]byte {
	h := sha256.New()
	for _, src := range sc.inputs() {
		h.Write(src)
	}
	for c := 0; c < maxClients; c++ {
		for i := 0; i < sc.cycle(); i++ {
			o := sc.op(c, i)
			h.Write([]byte(o.path))
			h.Write(o.body)
		}
	}
	return [32]byte(h.Sum(nil))
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	for _, spec := range workloads {
		gen := func(seed int64) [32]byte {
			sc := spec.new()
			sc.generate(seed)
			return requestHash(sc)
		}
		if gen(7) != gen(7) {
			t.Errorf("%s: the same seed gave different requests", spec.name)
		}
		if gen(7) == gen(8) {
			t.Errorf("%s: different seeds gave the same requests", spec.name)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{200, 0.95, 190, true},  // 10 samples beyond
		{199, 0.95, 190, false}, // 9 beyond
		{21, 0.50, 11, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1000, 0.99, 990, true},
		{1000, 0.999, 999, false},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	m := metric{Name: "latency_p95_ms", Unit: "ms", Value: 3, Null: true}
	if !bytes.Contains([]byte(m.String()), []byte("null")) {
		t.Errorf("a percentile without enough samples beyond it prints as %q", m.String())
	}
}

func TestSpreadIsPythonsQuartiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) is
	// [3.5, 13.5, 31.0]; the median is 13.5.
	got := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // two children, one gap
		{ID: 1, Parent: 0, Start: 10, End: 40},    // one child
		{ID: 2, Parent: 1, Start: 15, End: 25},    //
		{ID: 3, Parent: 0, Start: 30, End: 60},    // overlaps span 1 by 10
		{ID: 4, Parent: -1, Start: 100, End: 130}, // no children
		{ID: 5, Parent: 4, Start: 90, End: 140},   // child wider than its parent
	}
	want := []int64{50, 20, 10, 30, 0, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
	var r *recorder
	r.begin("x")
	r.count("n", 1)
	r.end() // a nil recorder records nothing and must not fail
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{"latency_p50_ms", "ms", false, 0.05}
	higher := metricSpec{"throughput_ops_s", "ops/s", true, 0.05}
	for _, c := range []struct {
		spec     metricSpec
		old, new []float64
		want     string
	}{
		{lower, []float64{10, 10.1, 9.9}, []float64{10.2, 10.3, 10.1}, "within"},
		{lower, []float64{10, 10.1, 9.9}, []float64{11, 11.1, 10.9}, "worse"},
		{lower, []float64{10, 10.1, 9.9}, []float64{9, 9.1, 8.9}, "better"},
		{higher, []float64{100, 101, 99}, []float64{90, 91, 89}, "worse"},
		{higher, []float64{100, 101, 99}, []float64{110, 111, 109}, "better"},
		{lower, []float64{10, 12, 8}, []float64{11, 11.1, 10.9}, "unresolved"},
		{lower, []float64{10, 10.1}, []float64{10.2, 10.3}, "unresolved"}, // fewer than minSets
		{lower, nil, []float64{10}, "unresolved"},
	} {
		if got := verdict(c.spec, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.spec.name, c.old, c.new, got, c.want)
		}
	}
}
