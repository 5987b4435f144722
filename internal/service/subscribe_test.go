package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"xqgo/internal/leakcheck"
)

func TestIsXMLContentType(t *testing.T) {
	cases := []struct {
		ct   string
		want bool
	}{
		{"application/xml", true},
		{"APPLICATION/XML", true},
		{"Text/Xml", true},
		{"text/xml; charset=utf-8", true},
		{"application/xml;charset=ISO-8859-1", true},
		{"application/soap+xml", true},
		{"image/svg+xml; charset=utf-8", true},
		{"application/ATOM+XML", true},

		{"application/xmlfoo", false}, // the old prefix test accepted this
		{"text/xml2", false},
		{"application/json", false},
		{"text/plain", false},
		{"xml", false},
		{"", false},
		{";;;", false},
	}
	for _, c := range cases {
		if got := isXMLContentType(c.ct); got != c.want {
			t.Errorf("isXMLContentType(%q) = %v, want %v", c.ct, got, c.want)
		}
	}
}

// TestStreamQueryContentTypeVariants: parameterized and suffix XML content
// types route POST /query into streamed ingestion just like the bare types.
func TestStreamQueryContentTypeVariants(t *testing.T) {
	s := newTestService(t, Config{})
	h := NewHTTPHandler(s)
	for _, ct := range []string{"Application/XML; charset=utf-8", "application/soap+xml"} {
		req := httptest.NewRequest("POST", "/query?query=count(/bib/book)", strings.NewReader(bibXML))
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 || rec.Body.String() != "3" {
			t.Errorf("Content-Type %q: code %d body %q, want 200 %q", ct, rec.Code, rec.Body.String(), "3")
		}
	}
}

type sseEvt struct {
	name string
	data string
}

func parseSSE(t *testing.T, body string) []sseEvt {
	t.Helper()
	var evts []sseEvt
	var cur sseEvt
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				evts = append(evts, cur)
				cur = sseEvt{}
			}
		}
	}
	return evts
}

func TestSubscribeSSE(t *testing.T) {
	leakcheck.Check(t)
	s := newTestService(t, Config{})
	h := NewHTTPHandler(s)

	req := httptest.NewRequest("POST",
		"/subscribe?query="+strings.ReplaceAll("/bib/book/title", "/", "%2F")+
			"&query=count(%2Fbib%2Fbook)", strings.NewReader(bibXML))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("POST /subscribe = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}

	evts := parseSSE(t, rec.Body.String())
	if len(evts) == 0 {
		t.Fatalf("no SSE events in %q", rec.Body.String())
	}
	if evts[0].name != "subscribed" {
		t.Fatalf("first event = %q, want subscribed", evts[0].name)
	}
	var infos []subInfo
	if err := json.Unmarshal([]byte(evts[0].data), &infos); err != nil {
		t.Fatalf("subscribed payload: %v", err)
	}
	if len(infos) != 2 || infos[0].Class != "fully-streamable" || infos[1].Class != "store-required" {
		t.Fatalf("subscribed = %+v", infos)
	}
	if infos[1].Reason == "" {
		t.Error("store-required subscription should carry a reason")
	}

	var titles, counts []subResult
	for _, e := range evts {
		if e.name != "result" {
			continue
		}
		var r subResult
		if err := json.Unmarshal([]byte(e.data), &r); err != nil {
			t.Fatalf("result payload %q: %v", e.data, err)
		}
		if r.Sub == 0 {
			titles = append(titles, r)
		} else {
			counts = append(counts, r)
		}
	}
	if len(titles) != 3 {
		t.Fatalf("title results = %d, want 3 (%v)", len(titles), titles)
	}
	for i, r := range titles {
		if r.Seq != int64(i+1) || !strings.HasPrefix(r.XML, "<title>") {
			t.Errorf("title result %d = %+v", i, r)
		}
	}
	if len(counts) != 1 || counts[0].XML != "3" {
		t.Fatalf("fallback results = %v, want one count of 3", counts)
	}

	last := evts[len(evts)-1]
	if last.name != "end" {
		t.Fatalf("last event = %q, want end", last.name)
	}
	var ends []subEnd
	if err := json.Unmarshal([]byte(last.data), &ends); err != nil {
		t.Fatalf("end payload: %v", err)
	}
	if len(ends) != 2 || ends[0].Results != 3 || !ends[1].FellBack || ends[1].Results != 1 {
		t.Fatalf("end stats = %+v", ends)
	}

	// The pub/sub accounting reaches /stats and /metrics.
	st := s.Stats()
	sub := st.Subscriptions
	if sub.Feeds != 1 || sub.Registered != 2 || sub.Results != 4 || sub.Fallbacks != 1 || sub.ActiveFeeds != 0 {
		t.Errorf("subscription totals = %+v", sub)
	}
	if st.Engine.StreamWindows == 0 || st.Engine.StreamResults == 0 {
		t.Errorf("engine stream counters empty: %+v", st.Engine)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	validatePromText(t, body)
	for _, want := range []string{
		"xqd_subscriber_feeds_total 1",
		"xqd_subscriptions_total 2",
		"xqd_subscription_results_total 4",
		"xqd_subscription_fallbacks_total 1",
		"xqd_subscriber_feeds_active 0",
		"xqd_engine_stream_windows_total",
		"xqd_engine_stream_buffer_peak_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// A subscription that raises an XQuery error reports its code beside the
// message; the feed and its sibling go on.
func TestSubscribeErrorEventCode(t *testing.T) {
	leakcheck.Check(t)
	h := NewHTTPHandler(newTestService(t, Config{}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST",
		"/subscribe?query="+url.QueryEscape("/bib/book/(1 idiv 0)")+"&query="+url.QueryEscape("/bib/book/title"),
		strings.NewReader(bibXML)))
	var got []subError
	for _, e := range parseSSE(t, rec.Body.String()) {
		if e.name == "error" {
			var se subError
			if err := json.Unmarshal([]byte(e.data), &se); err != nil {
				t.Fatalf("error payload %q: %v", e.data, err)
			}
			got = append(got, se)
		}
	}
	if len(got) != 1 || got[0].Sub != 0 || got[0].Code != "FOAR0001" || !strings.Contains(got[0].Error, "FOAR0001") {
		t.Fatalf("error events = %+v, want one for sub 0 with code FOAR0001\n%s", got, rec.Body.String())
	}
}

func TestSubscribeRejections(t *testing.T) {
	s := newTestService(t, Config{MaxSubscriptions: 1})
	h := NewHTTPHandler(s)

	// No query parameter.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/subscribe", strings.NewReader(bibXML)))
	if rec.Code != 400 {
		t.Errorf("no query: %d, want 400", rec.Code)
	}

	// Over the per-request subscription cap.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/subscribe?query=1&query=2", strings.NewReader(bibXML)))
	if rec.Code != 400 {
		t.Errorf("over cap: %d, want 400", rec.Code)
	}

	// Malformed query compiles to a clean 400, not an SSE stream.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/subscribe?query=%2Fbib%2F%2F%2F", strings.NewReader(bibXML)))
	if rec.Code != 400 {
		t.Errorf("bad query: %d, want 400", rec.Code)
	}
	if got := s.Stats().Subscriptions.Feeds; got != 0 {
		t.Errorf("rejected requests counted as feeds: %d", got)
	}
}

// sseRecorder is a concurrency-safe ResponseWriter for driving the
// subscribe handler from another goroutine.
type sseRecorder struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	header http.Header
	code   int
}

func (r *sseRecorder) Header() http.Header {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.header == nil {
		r.header = make(http.Header)
	}
	return r.header
}

func (r *sseRecorder) WriteHeader(code int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.code = code
}

func (r *sseRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Write(p)
}

func (r *sseRecorder) Flush() {}

func (r *sseRecorder) body() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.String()
}

func (r *sseRecorder) waitFor(t *testing.T, substr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(r.body(), substr) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %q in %q", substr, r.body())
}

// TestSubscribeShutdown: Service.Shutdown ends a live feed — even one whose
// client is sending nothing — with a terminal goodbye event, and new
// subscribe requests are rejected with 503.
func TestSubscribeShutdown(t *testing.T) {
	leakcheck.Check(t)
	s := newTestService(t, Config{})
	h := NewHTTPHandler(s)

	pr, pw := io.Pipe()
	defer pw.Close()
	rec := &sseRecorder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/subscribe?query=%2Fbib%2Fbook%2Ftitle", pr))
	}()

	// Partial feed: one complete book, document still open, then silence.
	if _, err := pw.Write([]byte("<bib><book><title>live</title></book>")); err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "event: result")

	s.Shutdown()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after Shutdown")
	}
	evts := parseSSE(t, rec.body())
	if len(evts) == 0 || evts[len(evts)-1].name != "goodbye" {
		t.Fatalf("last event = %v, want goodbye (events: %v)", evts, evts)
	}

	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest("POST", "/subscribe?query=1", strings.NewReader(bibXML)))
	if rec2.Code != 503 {
		t.Errorf("subscribe after shutdown = %d, want 503", rec2.Code)
	}
}

// TestServiceStreamModeRequest: a Request with StreamMode runs a streamable
// query on the event-driven evaluator (no document nodes are built) and the
// stream counters land in the aggregated engine totals.
func TestServiceStreamModeRequest(t *testing.T) {
	s := New(Config{})
	var out strings.Builder
	if _, _, err := s.Execute(context.Background(), Request{
		Query:      `/bib/book/title`,
		Body:       strings.NewReader(bibXML),
		StreamMode: true,
	}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "<title>"); got != 3 {
		t.Fatalf("stream-mode result = %q", out.String())
	}
	st := s.Stats()
	if st.Engine.StreamWindows == 0 || st.Engine.StreamResults != 3 {
		t.Errorf("engine stream counters = %+v", st.Engine)
	}
	if st.Engine.DocNodesBuilt != 0 {
		t.Errorf("stream mode materialized %d nodes", st.Engine.DocNodesBuilt)
	}

	// A store-required query under StreamMode falls back transparently.
	out.Reset()
	if _, _, err := s.Execute(context.Background(), Request{
		Query:      `count(/bib/book)`,
		Body:       strings.NewReader(bibXML),
		StreamMode: true,
	}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "3" {
		t.Fatalf("fallback result = %q", out.String())
	}
	if got := s.Stats().Engine.StreamFallbacks; got != 1 {
		t.Errorf("stream fallbacks = %d, want 1", got)
	}
}
