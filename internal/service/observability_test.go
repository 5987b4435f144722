package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"xqgo"
	"xqgo/internal/optimizer"
	"xqgo/internal/trace"
	"xqgo/internal/workload"
	"xqgo/internal/xdm"
)

// ---- Prometheus exposition ----

// promSample matches one sample line of the text exposition format 0.0.4:
// name, optional label set, and a float value.
var promSample = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
		`(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})?` +
		` (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)$`)

// validatePromText line-checks a /metrics body: every non-comment line must
// be a well-formed sample whose metric was declared by a preceding # TYPE
// (histogram samples may use the _bucket/_sum/_count suffixes).
func validatePromText(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{}
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(rest) != 2 || rest[0] == "" || rest[1] == "" {
				t.Errorf("line %d: malformed HELP: %q", i+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(rest) != 2 {
				t.Errorf("line %d: malformed TYPE: %q", i+1, line)
				continue
			}
			switch rest[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown metric type %q", i+1, rest[1])
			}
			if _, dup := typed[rest[0]]; dup {
				t.Errorf("line %d: duplicate TYPE for %q", i+1, rest[0])
			}
			typed[rest[0]] = rest[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: not a valid sample: %q", i+1, line)
			continue
		}
		name := m[1]
		declared := typed[name] != ""
		if !declared {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suf); base != name && typed[base] == "histogram" {
					declared = true
					break
				}
			}
		}
		if !declared {
			t.Errorf("line %d: sample %q has no preceding TYPE declaration", i+1, name)
		}
		if m[3] != "NaN" && !strings.HasSuffix(m[3], "Inf") {
			if _, err := strconv.ParseFloat(m[3], 64); err != nil {
				t.Errorf("line %d: bad value %q: %v", i+1, m[3], err)
			}
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	s := newTestService(t, Config{})
	for i := 0; i < 3; i++ {
		if _, err := s.Query(context.Background(), Request{Query: "count(/bib/book)", ContextDoc: "bib"}); err != nil {
			t.Fatal(err)
		}
	}
	// One failing query so the error counter is nonzero too.
	if _, err := s.Query(context.Background(), Request{Query: `error()`, ContextDoc: "bib"}); err == nil {
		t.Fatal("error() should fail")
	}

	h := NewHTTPHandler(s)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body := rec.Body.String()
	validatePromText(t, body)

	for _, want := range []string{
		`xqd_requests_total{outcome="ok"} 3`,
		`xqd_requests_total{outcome="error"} 1`,
		`xqd_request_duration_seconds_bucket{le="+Inf"} 4`,
		`xqd_request_duration_seconds_count 4`,
		`xqd_catalog_documents 1`,
		`xqd_engine_xml_tokens_total`,
		`xqd_profiled_requests_total 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Histogram buckets must be cumulative (monotonically non-decreasing).
	last := int64(-1)
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "xqd_request_duration_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = v
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{100 * time.Microsecond, 0},
		{500 * time.Microsecond, 0}, // boundary is inclusive (le)
		{500*time.Microsecond + 1, 1},
		{time.Millisecond, 1},
		{2 * time.Millisecond, 2},
		{10 * time.Second, len(latBuckets) - 1},
		{11 * time.Second, len(latBuckets)}, // +Inf slot
	}
	for _, c := range cases {
		if got := histBucket(c.d); got != c.want {
			t.Errorf("histBucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// The bounds themselves must be strictly increasing or the cumulation
	// in WriteMetrics is meaningless.
	for i := 1; i < len(latBuckets); i++ {
		if latBuckets[i] <= latBuckets[i-1] {
			t.Errorf("latBuckets not increasing at %d: %v", i, latBuckets)
		}
	}
}

// ---- slow-query log ----

func TestSlowLogRingEviction(t *testing.T) {
	l := newSlowLog(3)
	for i := 1; i <= 5; i++ {
		l.add(SlowEntry{Query: strconv.Itoa(i), Micros: int64(i)})
	}
	entries, total := l.snapshot()
	if total != 5 {
		t.Errorf("total = %d, want 5", total)
	}
	if len(entries) != 3 {
		t.Fatalf("len(entries) = %d, want 3", len(entries))
	}
	// Newest first; oldest two (1, 2) evicted.
	for i, want := range []string{"5", "4", "3"} {
		if entries[i].Query != want {
			t.Errorf("entries[%d].Query = %q, want %q", i, entries[i].Query, want)
		}
	}
}

func TestSlowQueryEndpoint(t *testing.T) {
	// A 1ns threshold makes every query slow, so a real query lands in the
	// log with its full profile attached.
	s := newTestService(t, Config{SlowQueryThreshold: time.Nanosecond})
	const slowQ = `for $b in /bib/book where $b/price > 10 return string($b/title)`
	if _, err := s.Query(context.Background(), Request{Query: slowQ, ContextDoc: "bib"}); err != nil {
		t.Fatal(err)
	}

	h := NewHTTPHandler(s)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/slow", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /slow = %d: %s", rec.Code, rec.Body.String())
	}
	var resp slowLogResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode /slow: %v", err)
	}
	if resp.Total != 1 || len(resp.Entries) != 1 {
		t.Fatalf("slow log = total %d, %d entries; want 1, 1", resp.Total, len(resp.Entries))
	}
	e := resp.Entries[0]
	if e.Query != slowQ || e.Doc != "bib" {
		t.Errorf("entry = %q doc %q", e.Query, e.Doc)
	}
	if e.Profile == nil {
		t.Fatal("slow entry carries no profile")
	}
	if len(e.Profile.Operators) == 0 {
		t.Error("slow entry profile has no operator stats")
	}
	if e.Profile.Counters.XMLTokens == 0 {
		t.Error("slow entry profile counts no XML tokens")
	}

	// Rejected requests must never enter the log; disabled threshold logs
	// nothing at all.
	s2 := newTestService(t, Config{SlowQueryThreshold: -1})
	if _, err := s2.Query(context.Background(), Request{Query: slowQ, ContextDoc: "bib"}); err != nil {
		t.Fatal(err)
	}
	if entries, total := s2.SlowQueries(); total != 0 || len(entries) != 0 {
		t.Errorf("disabled slow log recorded %d entries (total %d)", len(entries), total)
	}
}

func TestQueryExplainHTTP(t *testing.T) {
	s := newTestService(t, Config{})
	h := NewHTTPHandler(s)
	body := `{"query":"for $b in /bib/book where $b/price > 10 return string($b/title)","doc":"bib"}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/query?explain=1", strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("POST /query?explain=1 = %d: %s", rec.Code, rec.Body.String())
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Profile == nil {
		t.Fatal("explain=1 returned no profile")
	}
	if !resp.Profile.Timed {
		t.Error("explain profile should be timed")
	}
	if len(resp.Profile.Operators) < 3 {
		t.Errorf("explain profile has %d operators, want >= 3", len(resp.Profile.Operators))
	}
	items := int64(0)
	for _, op := range resp.Profile.Operators {
		items += op.Items
	}
	if items == 0 {
		t.Error("explain profile counted no items")
	}
	if len(resp.Profile.RuleFires) == 0 {
		t.Error("explain profile names no fired optimizer rules")
	}
	if resp.Profile.Plan == "" {
		t.Error("explain profile has no plan")
	}

	// Without explain, no profile envelope.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("POST /query = %d", rec.Code)
	}
	var plain queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Profile != nil {
		t.Error("profile attached without explain")
	}
}

// ---- plan-choice observability ----

// The explain envelope, the slow-query log and /metrics all surface which
// join strategy an execution resolved to and how far off the cardinality
// estimate was.
func TestPlanChoiceObservability(t *testing.T) {
	s := newTestService(t, Config{
		Options:            xqgo.Options{Strategy: xqgo.ForceTwig},
		SlowQueryThreshold: time.Nanosecond, // everything is slow
	})
	res, err := s.Query(context.Background(), Request{
		Query: "count(/bib//book//title)", ContextDoc: "bib", Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("explain returned no profile")
	}
	if res.Profile.Strategy != "twig-join" {
		t.Errorf("explain strategy = %q, want twig-join", res.Profile.Strategy)
	}
	if res.Profile.Counters.TwigJoins == 0 {
		t.Error("twig execution counted no twig joins")
	}
	if res.Profile.Counters.PlanTwigJoin == 0 {
		t.Error("plan-choice counter did not record the twig decision")
	}
	if res.Profile.CardinalityError < 0 {
		t.Errorf("cardinality error = %g, want >= 0", res.Profile.CardinalityError)
	}

	entries, _ := s.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow entry recorded")
	}
	if entries[0].Strategy != "twig-join" {
		t.Errorf("slow entry strategy = %q, want twig-join", entries[0].Strategy)
	}

	h := NewHTTPHandler(s)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	validatePromText(t, body)
	for _, want := range []string{
		`xqd_engine_twig_joins_total`,
		`xqd_plan_choice_total{strategy="navigation"}`,
		`xqd_plan_choice_total{strategy="twig-join"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "binary-join") {
		t.Error("/metrics still reports a binary-join plan choice")
	}
}

// The estimate a priced path row reports is the one the planner priced:
// the cost model's output for the document's statistics on the first run,
// the feedback cache's observed count on the second. The explain row, its
// op: span and the cardinality error in the explain profile and in /slow
// all read that number.
func TestPricedRowReportsPlannerEstimate(t *testing.T) {
	s := newTestService(t, Config{SlowQueryThreshold: time.Nanosecond})
	var xml strings.Builder
	if err := workload.WriteXML(&xml, workload.Orders(workload.OrdersConfig{Lines: 10000, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterDocument("orders", strings.NewReader(xml.String())); err != nil {
		t.Fatal(err)
	}
	e, _ := s.Catalog.Get("orders")
	st := e.Doc.Store().Stats()
	modelled := optimizer.EstimateChain(optimizer.ChainStats{
		DocNodes: st.Nodes, AvgDepth: st.AvgDepth, Observed: -1,
		Steps: []optimizer.ChainStep{
			{Postings: st.ElementCount(xdm.LocalName("OrderLine"))},
			{Postings: st.ElementCount(xdm.LocalName("ID"))},
		},
	}).Output
	const observed = 10000
	h := NewHTTPHandler(s)
	getJSON := func(method, url, body string, v any) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%s %s = %d: %s", method, url, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatal(err)
		}
	}
	for run, want := range []int64{int64(math.Round(modelled)), observed} {
		var res queryResponse
		getJSON("POST", "/query?explain=1", `{"query":"count(//OrderLine//ID)","doc":"orders"}`, &res)
		if res.Result != "10000" || res.Profile == nil {
			t.Fatalf("run %d: result %q, profile %v", run+1, res.Result, res.Profile)
		}
		var row *xqgo.OpProfile
		for i, op := range res.Profile.Operators {
			if op.Strategy != "" {
				row = &res.Profile.Operators[i]
			}
		}
		if row == nil {
			t.Fatalf("run %d: no priced row in %+v", run+1, res.Profile.Operators)
		}
		if row.EstItems != want || row.Items != observed {
			t.Errorf("run %d: estItems %d items %d, want %d and %d", run+1, row.EstItems, row.Items, want, observed)
		}
		wantErr := math.Abs(float64(want)-observed) / observed
		if math.Abs(res.Profile.CardinalityError-wantErr) > 1e-9 {
			t.Errorf("run %d: explain cardinalityError %g, want %g", run+1, res.Profile.CardinalityError, wantErr)
		}

		var slow slowLogResponse
		getJSON("GET", "/slow", "", &slow)
		if len(slow.Entries) != run+1 {
			t.Fatalf("run %d: %d slow entries", run+1, len(slow.Entries))
		}
		if got := slow.Entries[0].CardinalityError; math.Abs(got-wantErr) > 1e-9 {
			t.Errorf("run %d: /slow cardinalityError %g, want %g", run+1, got, wantErr)
		}

		var tr trace.Data
		getJSON("GET", "/traces/"+res.TraceID, "", &tr)
		spans := 0
		for _, sp := range tr.Spans {
			if sp.Name == "op:"+row.Kind && sp.Attrs["detail"] == row.Detail {
				spans++
				if got := sp.Attrs["estItems"]; got != float64(want) {
					t.Errorf("run %d: op span estItems %v, want %d", run+1, got, want)
				}
			}
		}
		if spans != 1 {
			t.Errorf("run %d: %d op spans for the priced row, want 1", run+1, spans)
		}
	}
}
