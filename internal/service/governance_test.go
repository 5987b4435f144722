package service

// Resource-governance tests: per-request memory budgets, load shedding near
// the process soft cap, the governance stats/metrics surface, and SSE fault
// injection on the subscription path.

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"xqgo/internal/faultinject"
	"xqgo/internal/leakcheck"
	"xqgo/internal/limits"
)

// bigOrdersXML builds a feed large enough that lazy materialization charges
// far beyond a few-KiB budget.
func bigOrdersXML(lines int) string {
	var b strings.Builder
	b.WriteString("<Order>")
	for i := 0; i < lines; i++ {
		b.WriteString("<OrderLine><SellersID>1</SellersID><Item><ID>widget</ID></Item></OrderLine>")
	}
	b.WriteString("</Order>")
	return b.String()
}

func TestQueryBudgetTripCountsAndReleases(t *testing.T) {
	leakcheck.Check(t)
	s := newTestService(t, Config{MaxQueryBytes: 8 << 10})
	_, err := s.Query(context.Background(), Request{
		Query: `count(/Order/OrderLine)`,
		Body:  strings.NewReader(bigOrdersXML(3000)),
	})
	if err == nil {
		t.Fatal("8KiB budget over a large streamed body did not trip")
	}
	var be *limits.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v, want *limits.BudgetError", err)
	}
	if got := statusForError(err); got != 422 {
		t.Errorf("budget error status = %d, want 422", got)
	}
	if got := s.gov.InUse(); got != 0 {
		t.Errorf("governor holds %d bytes after the request", got)
	}
	st := s.Stats()
	if got := st.Governance.BudgetTrips["query"]; got != 1 {
		t.Errorf("budgetTrips[query] = %d, want 1", got)
	}
	if st.Governance.MaxQueryBytes != 8<<10 {
		t.Errorf("Governance.MaxQueryBytes = %d", st.Governance.MaxQueryBytes)
	}

	// An untripped request right after is unaffected.
	res, err := s.Query(context.Background(), Request{Query: `1+1`})
	if err != nil || res.XML != "2" {
		t.Fatalf("follow-up query = %q, %v", res.XML, err)
	}
}

func TestRequestMaxQueryBytesOverride(t *testing.T) {
	s := newTestService(t, Config{}) // no config-level cap
	_, err := s.Query(context.Background(), Request{
		Query:         `count(/Order/OrderLine)`,
		Body:          strings.NewReader(bigOrdersXML(3000)),
		MaxQueryBytes: 8 << 10,
	})
	var be *limits.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("per-request cap: error %v, want budget error", err)
	}
	// Negative override disables the cap even with one configured.
	s2 := newTestService(t, Config{MaxQueryBytes: 8 << 10})
	res, err := s2.Query(context.Background(), Request{
		Query:         `count(/Order/OrderLine)`,
		Body:          strings.NewReader(bigOrdersXML(3000)),
		MaxQueryBytes: -1,
	})
	if err != nil {
		t.Fatalf("disabled cap still tripped: %v", err)
	}
	if res.XML != "3000" {
		t.Fatalf("result = %q", res.XML)
	}
}

func TestGovernorOverloadShedsWith503(t *testing.T) {
	s := newTestService(t, Config{ProcessSoftLimitBytes: 1 << 20})
	// Saturate the governor past the 4/5 shed threshold, as running queries
	// holding live tracked bytes would.
	hog := s.gov.Governed(0)
	if err := hog.Charge(900 << 10); err != nil {
		t.Fatal(err)
	}
	defer hog.ReleaseAll()

	_, err := s.Query(context.Background(), Request{Query: `1+1`})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("query under overload = %v, want ErrOverloaded", err)
	}
	if got := statusForError(err); got != 503 {
		t.Errorf("overload status = %d, want 503", got)
	}
	st := s.Stats()
	if st.Governance.LoadShed != 1 {
		t.Errorf("LoadShed = %d, want 1", st.Governance.LoadShed)
	}
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	if st.Governance.GovernedBytes != 900<<10 {
		t.Errorf("GovernedBytes = %d", st.Governance.GovernedBytes)
	}

	// The subscribe admission path sheds too.
	h := NewHTTPHandler(s)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/subscribe?query=%2Fbib%2Fbook", strings.NewReader(bibXML)))
	if rec.Code != 503 {
		t.Errorf("POST /subscribe under overload = %d, want 503", rec.Code)
	}

	// Releasing the hog reopens admission.
	hog.ReleaseAll()
	res, err := s.Query(context.Background(), Request{Query: `1+1`})
	if err != nil || res.XML != "2" {
		t.Fatalf("query after release = %q, %v", res.XML, err)
	}
}

func TestMetricsGovernanceExposition(t *testing.T) {
	s := newTestService(t, Config{MaxQueryBytes: 4 << 10, ProcessSoftLimitBytes: 64 << 20})
	// One tripped query so the counter is non-zero.
	if _, err := s.Query(context.Background(), Request{
		Query: `count(/Order/OrderLine)`,
		Body:  strings.NewReader(bigOrdersXML(2000)),
	}); err == nil {
		t.Fatal("expected budget trip")
	}
	var sb strings.Builder
	s.WriteMetrics(&sb)
	body := sb.String()
	for _, want := range []string{
		"xqd_governed_bytes 0",
		"xqd_process_soft_limit_bytes 67108864",
		"xqd_load_shed_total 0",
		`xqd_budget_trips_total{route="query"} 1`,
		`xqd_budget_trips_total{route="subscribe"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestSubscribeSSEWriteFaultIsolatesSubscription(t *testing.T) {
	defer faultinject.Reset()
	leakcheck.Check(t)
	s := newTestService(t, Config{})
	h := NewHTTPHandler(s)

	// Skip the "subscribed" frame, then fail exactly one result write: the
	// afflicted subscription errors out, the feed and its sibling continue.
	faultinject.Enable(faultinject.SSEWrite, faultinject.Fault{After: 1, Count: 1})
	req := httptest.NewRequest("POST",
		"/subscribe?query=%2Fbib%2Fbook%2Ftitle&query=%2Fbib%2Fbook%2Fprice",
		strings.NewReader(bibXML))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	faultinject.Reset()
	if rec.Code != 200 {
		t.Fatalf("POST /subscribe = %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if !strings.Contains(body, "event: error") {
		t.Errorf("no error event for the failed subscription:\n%s", body)
	}
	if !strings.Contains(body, "event: result") {
		t.Errorf("sibling delivered no results:\n%s", body)
	}
	// The feed itself survived to its final frame.
	if !strings.Contains(body, "event: end") && !strings.Contains(body, "event: goodbye") {
		t.Errorf("feed did not reach a terminal event:\n%s", body)
	}
}

func TestSubscribeSlowConsumerStallStillCompletes(t *testing.T) {
	defer faultinject.Reset()
	leakcheck.Check(t)
	s := newTestService(t, Config{})
	h := NewHTTPHandler(s)

	faultinject.Enable(faultinject.SSESlow, faultinject.Fault{Delay: 2_000_000 /* 2ms */, Count: 3})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST",
		"/subscribe?query=%2Fbib%2Fbook%2Ftitle", strings.NewReader(bibXML)))
	faultinject.Reset()
	if rec.Code != 200 {
		t.Fatalf("POST /subscribe = %d", rec.Code)
	}
	body := rec.Body.String()
	if got := strings.Count(body, "event: result"); got != 3 {
		t.Errorf("delivered %d results under a stalling consumer, want 3:\n%s", got, body)
	}
	if !strings.Contains(body, "event: end") {
		t.Errorf("feed did not end cleanly:\n%s", body)
	}
}

func TestSubscribeFeedBudgetTrip(t *testing.T) {
	leakcheck.Check(t)
	s := newTestService(t, Config{MaxQueryBytes: 4 << 10})
	h := NewHTTPHandler(s)

	// A store-required subscription materializes the feed, charging the
	// per-feed budget past its cap.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST",
		"/subscribe?query=count(%2FOrder%2FOrderLine)", strings.NewReader(bigOrdersXML(3000))))
	if rec.Code != 200 {
		t.Fatalf("POST /subscribe = %d (SSE feeds report errors in-band)", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "XQGO0001") {
		t.Errorf("feed did not surface the budget error:\n%s", rec.Body.String())
	}
	if got := s.Stats().Governance.BudgetTrips["subscribe"]; got != 1 {
		t.Errorf("budgetTrips[subscribe] = %d, want 1", got)
	}
	if got := s.gov.InUse(); got != 0 {
		t.Errorf("governor holds %d bytes after the feed", got)
	}
}

func TestGovernanceStatsDefaultsOff(t *testing.T) {
	s := newTestService(t, Config{})
	st := s.Stats()
	if st.Governance.ProcessSoftLimitBytes != 0 || st.Governance.MaxQueryBytes != 0 {
		t.Errorf("governance caps should default off: %+v", st.Governance)
	}
	res, err := s.Query(context.Background(), Request{Query: `count(/bib/book)`, ContextDoc: "bib"})
	if err != nil || res.XML != "3" {
		t.Fatalf("ungoverned query = %q, %v", res.XML, err)
	}
	if got := s.Stats().Governance.GovernedBytes; got != 0 {
		t.Errorf("GovernedBytes with governance off = %d", got)
	}
}
