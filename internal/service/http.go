package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"xqgo"
	"xqgo/internal/trace"
)

// NewHTTPHandler exposes the service over HTTP (stdlib net/http only):
//
//	PUT/POST /documents/{name}   register a document (body = XML)
//	GET      /documents          list registered documents
//	GET      /documents/{name}   one document's info
//	DELETE   /documents/{name}   evict a document
//	POST     /collections/{name} define a collection (body = JSON name list)
//	POST     /query              run a query (body = queryRequest JSON);
//	                             ?explain=1 adds an execution profile.
//	                             With Content-Type application/xml (or
//	                             text/xml) the body is instead a streamed
//	                             XML input document: the query comes from
//	                             ?query=, the body is parsed incrementally
//	                             (projected to the query's path set) while
//	                             the XML result streams back
//	POST     /subscribe          register continuous queries (repeatable
//	                             ?query= params) against the request body
//	                             as a live XML feed; results stream back as
//	                             Server-Sent Events from a single shared
//	                             parse pass
//	GET      /stats              counters, latency percentiles, cache ratios
//	GET      /metrics            Prometheus text exposition (OpenMetrics with
//	                             trace exemplars when Accept asks for it)
//	GET      /slow               slow-query log (newest first, with profiles
//	                             and trace-id links)
//	GET      /traces             completed request traces, newest first
//	GET      /traces/{id}        one trace's full span tree
//	GET      /subscriptions      live subscriber feeds with per-handle gauges
//	GET      /healthz            readiness: 200 while serving, 503 when the
//	                             admission queue is full or shutting down
//
// Query and subscribe requests honor an incoming W3C traceparent header
// (the captured trace continues the caller's trace id) and answer with
// Traceparent and X-Trace-Id response headers pointing at the capture.
func NewHTTPHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	register := func(w http.ResponseWriter, r *http.Request) {
		info, err := s.RegisterDocument(r.PathValue("name"), r.Body)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	}
	mux.HandleFunc("PUT /documents/{name}", register)
	mux.HandleFunc("POST /documents/{name}", register)
	mux.HandleFunc("GET /documents", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Catalog.List())
	})
	mux.HandleFunc("GET /documents/{name}", func(w http.ResponseWriter, r *http.Request) {
		e, ok := s.Catalog.Get(r.PathValue("name"))
		if !ok {
			writeError(w, fmt.Errorf("%w: %q", ErrUnknownDocument, r.PathValue("name")))
			return
		}
		writeJSON(w, http.StatusOK, e.info())
	})
	mux.HandleFunc("DELETE /documents/{name}", func(w http.ResponseWriter, r *http.Request) {
		if !s.Catalog.Evict(r.PathValue("name")) {
			writeError(w, fmt.Errorf("%w: %q", ErrUnknownDocument, r.PathValue("name")))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /collections/{name}", func(w http.ResponseWriter, r *http.Request) {
		var members []string
		if err := json.NewDecoder(r.Body).Decode(&members); err != nil {
			writeError(w, &BadRequestError{Err: err})
			return
		}
		if err := s.Catalog.RegisterCollection(r.PathValue("name"), members); err != nil {
			writeError(w, &BadRequestError{Err: err})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		s.handleQuery(w, r)
	})
	mux.HandleFunc("POST /subscribe", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubscribe(w, r)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if acceptsOpenMetrics(r.Header.Get("Accept")) {
			w.Header().Set("Content-Type", openMetricsContentType)
			s.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		entries, total := s.SlowQueries()
		writeJSON(w, http.StatusOK, slowLogResponse{
			ThresholdMicros: s.cfg.SlowQueryThreshold.Microseconds(),
			Total:           total,
			Entries:         entries,
		})
	})
	mux.HandleFunc("GET /traces", func(w http.ResponseWriter, r *http.Request) {
		traces, total := s.Traces()
		writeJSON(w, http.StatusOK, tracesResponse{Total: total, Traces: traces})
	})
	mux.HandleFunc("GET /traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		d, ok := s.TraceByID(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{
				Error: fmt.Sprintf("trace %q not found (ring keeps the most recent %d)", r.PathValue("id"), s.traces.Len())})
			return
		}
		writeJSON(w, http.StatusOK, d)
	})
	mux.HandleFunc("GET /subscriptions", func(w http.ResponseWriter, r *http.Request) {
		feeds := s.Subscriptions()
		writeJSON(w, http.StatusOK, subscriptionsResponse{Active: len(feeds), Feeds: feeds})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.healthStatus(), s.Health())
	})
	return mux
}

// Health is the GET /healthz readiness report.
type Health struct {
	// Status is "ok" when the service can take a query right now, else
	// "saturated" or "shutting-down".
	Status string `json:"status"`
	// Documents is the number of catalog documents loaded.
	Documents int `json:"documents"`
	// Workers/InFlight/Queued describe the executor pool.
	Workers  int   `json:"workers"`
	InFlight int64 `json:"inFlight"`
	Queued   int64 `json:"queued"`
	// ActiveFeeds is the number of live subscriber connections.
	ActiveFeeds int64   `json:"activeFeeds"`
	UptimeSecs  float64 `json:"uptimeSecs"`
}

// Health snapshots readiness: whether a request arriving now would be served.
func (s *Service) Health() Health {
	docs, _, _ := s.Catalog.Totals()
	h := Health{
		Status:      "ok",
		Documents:   docs,
		Workers:     s.exec.Workers(),
		InFlight:    s.exec.InFlight(),
		Queued:      s.exec.Queued(),
		ActiveFeeds: s.subs.active.Load(),
		UptimeSecs:  time.Since(s.stats.start).Seconds(),
	}
	switch {
	case s.ShuttingDown():
		h.Status = "shutting-down"
	case s.exec.Saturated():
		h.Status = "saturated"
	}
	return h
}

func (s *Service) healthStatus() int {
	if s.ShuttingDown() || s.exec.Saturated() {
		return http.StatusServiceUnavailable
	}
	return http.StatusOK
}

// requestTrace builds the trace for an incoming HTTP request: an incoming
// W3C traceparent header is always honored (continuing the caller's trace
// id, even with tracing disabled); otherwise a fresh trace unless disabled.
func requestTrace(r *http.Request, disabled bool) *xqgo.Trace {
	if hdr := r.Header.Get("traceparent"); hdr != "" {
		if tr, ok := xqgo.TraceFromHeader(hdr); ok {
			return tr
		}
	}
	if disabled {
		return nil
	}
	return xqgo.NewTrace()
}

// traceHeaders announces the capture on the response before the body
// commits: Traceparent for W3C-propagating clients, X-Trace-Id for humans
// pasting into GET /traces/{id}.
func traceHeaders(w http.ResponseWriter, tr *xqgo.Trace) {
	if tr == nil {
		return
	}
	w.Header().Set("Traceparent", tr.Traceparent())
	w.Header().Set("X-Trace-Id", tr.ID())
}

// queryRequest is the POST /query body.
type queryRequest struct {
	Query          string         `json:"query"`
	Doc            string         `json:"doc,omitempty"`
	Vars           map[string]any `json:"vars,omitempty"`
	TimeoutMs      int64          `json:"timeoutMs,omitempty"`
	MaxResultBytes int64          `json:"maxResultBytes,omitempty"`
	// Stream switches to chunked XML output: bytes are written as the
	// engine produces them (no result materialization server-side).
	Stream bool `json:"stream,omitempty"`
	// Explain attaches an execution profile to the response (also
	// settable as ?explain=1). Ignored for streamed responses.
	Explain bool `json:"explain,omitempty"`
}

// queryResponse is the materialized POST /query response.
type queryResponse struct {
	Result  string          `json:"result"`
	Cached  bool            `json:"cached"`
	Micros  int64           `json:"micros"`
	Profile *ExplainProfile `json:"profile,omitempty"`
	// TraceID names the request's captured span tree (GET /traces/{id}).
	TraceID string `json:"traceId,omitempty"`
}

// slowLogResponse is the GET /slow envelope.
type slowLogResponse struct {
	ThresholdMicros int64       `json:"thresholdMicros"`
	Total           uint64      `json:"total"`
	Entries         []SlowEntry `json:"entries"`
}

// tracesResponse is the GET /traces envelope.
type tracesResponse struct {
	Total  uint64       `json:"total"`
	Traces []trace.Data `json:"traces"`
}

// subscriptionsResponse is the GET /subscriptions envelope.
type subscriptionsResponse struct {
	Active int          `json:"active"`
	Feeds  []FeedStatus `json:"feeds"`
}

// isXMLContentType reports whether a Content-Type header value names an XML
// media type: application/xml, text/xml, or any +xml suffix type
// (application/soap+xml, image/svg+xml, ...). Matching follows RFC 7231 —
// case-insensitive, parameters ignored — via mime.ParseMediaType, instead of
// a naive prefix test that missed "Application/XML" and matched
// "application/xmlfoo".
func isXMLContentType(ct string) bool {
	if ct == "" {
		return false
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mt == "application/xml" || mt == "text/xml" || strings.HasSuffix(mt, "+xml")
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	if isXMLContentType(r.Header.Get("Content-Type")) {
		s.handleStreamQuery(w, r)
		return
	}
	var qr queryRequest
	if err := json.NewDecoder(r.Body).Decode(&qr); err != nil {
		writeError(w, &BadRequestError{Err: fmt.Errorf("invalid request body: %v", err)})
		return
	}
	if qr.Query == "" {
		writeError(w, &BadRequestError{Err: errors.New("missing \"query\"")})
		return
	}
	tr := requestTrace(r, s.cfg.DisableTracing)
	req := Request{
		Query:          qr.Query,
		ContextDoc:     qr.Doc,
		Vars:           normalizeVars(qr.Vars),
		Timeout:        time.Duration(qr.TimeoutMs) * time.Millisecond,
		MaxResultBytes: qr.MaxResultBytes,
		Explain:        qr.Explain || r.URL.Query().Get("explain") == "1",
		Trace:          tr,
	}
	traceHeaders(w, tr)
	if qr.Stream {
		s.stream(w, r, req)
		return
	}
	res, err := s.Query(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Result:  res.XML,
		Cached:  res.Cached,
		Micros:  res.Elapsed.Microseconds(),
		Profile: res.Profile,
		TraceID: res.TraceID,
	})
}

// handleStreamQuery is the streaming-ingestion form of POST /query: the
// request body is the XML input document and the serialized result streams
// back as it is produced — output can begin before the body is fully read.
// Streamable queries run on the event-driven evaluator (the body is never
// materialized); other plans fall back to lazy, projected ingestion.
// ?mode=store forces the fallback path. The query text comes from the
// ?query= parameter; ?timeoutMs= and ?maxResultBytes= override the
// configured limits.
func (s *Service) handleStreamQuery(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	query := qs.Get("query")
	if query == "" {
		writeError(w, &BadRequestError{Err: errors.New("missing \"query\" parameter")})
		return
	}
	timeoutMs, err := limitParam(qs, "timeoutMs")
	if err != nil {
		writeError(w, err)
		return
	}
	maxBytes, err := limitParam(qs, "maxResultBytes")
	if err != nil {
		writeError(w, err)
		return
	}
	tr := requestTrace(r, s.cfg.DisableTracing)
	req := Request{
		Query:          query,
		Body:           r.Body,
		StreamMode:     qs.Get("mode") != "store",
		Timeout:        time.Duration(timeoutMs) * time.Millisecond,
		MaxResultBytes: maxBytes,
		Trace:          tr,
	}
	// Full duplex lets the result stream out while the body is still being
	// read — otherwise HTTP/1.x drains (and closes) the body at the first
	// response write, which defeats incremental evaluation entirely. The
	// body is read on the engine's reader goroutine (ctxio), which may still
	// be inside a read when a truncated stream ends the handler. The server
	// then aborts that read, and an aborted read cancels the connection's
	// context, which every later request on the connection inherits. The
	// connection is therefore not reused.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Connection", "close")
	traceHeaders(w, tr)
	s.stream(w, r, req)
}

// stream answers with the XML result as it is produced. Status and headers
// go out with the first byte: an error before it is the JSON error
// response, an error after it ends the body where the result stopped and
// travels in the trailers Xq-Error-Code (ErrorCode, the same string an
// error response's "code" holds) and Xq-Error (the message).
func (s *Service) stream(w http.ResponseWriter, r *http.Request, req Request) {
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Header().Set("Trailer", "Xq-Error-Code, Xq-Error")
	_, _, err := s.Execute(r.Context(), req, w)
	var cut *truncatedError
	switch {
	case err == nil:
	case !errors.As(err, &cut):
		writeError(w, err)
	default:
		w.Header().Set("Xq-Error-Code", ErrorCode(err))
		w.Header().Set("Xq-Error", strings.Join(strings.Fields(err.Error()), " "))
	}
}

// limitParam reads an integer limit from the URL: absent means 0 (the
// configured default applies), present and unparsable is the 400 the JSON
// form of the request answers when the same field fails to decode.
func limitParam(qs url.Values, name string) (int64, error) {
	if !qs.Has(name) {
		return 0, nil
	}
	n, err := strconv.ParseInt(qs.Get(name), 10, 64)
	if err != nil {
		return 0, &BadRequestError{Err: fmt.Errorf("invalid %q parameter: %v", name, err)}
	}
	return n, nil
}

// normalizeVars converts JSON-decoded variable values into the Go kinds
// xqgo.ToSequence accepts: integral float64s become int64 (JSON has no
// integer type), and homogeneous arrays become typed slices.
func normalizeVars(vars map[string]any) map[string]any {
	if len(vars) == 0 {
		return nil
	}
	out := make(map[string]any, len(vars))
	for k, v := range vars {
		out[k] = normalizeJSONValue(v)
	}
	return out
}

func normalizeJSONValue(v any) any {
	switch x := v.(type) {
	case float64:
		if x == float64(int64(x)) {
			return int64(x)
		}
		return x
	case []any:
		ints := make([]int64, 0, len(x))
		floats := make([]float64, 0, len(x))
		bools := make([]bool, 0, len(x))
		strs := make([]string, 0, len(x))
		for _, e := range x {
			switch y := normalizeJSONValue(e).(type) {
			case int64:
				ints = append(ints, y)
				floats = append(floats, float64(y))
			case float64:
				floats = append(floats, y)
			case bool:
				bools = append(bools, y)
			case string:
				strs = append(strs, y)
			}
		}
		switch {
		case len(ints) == len(x):
			return ints
		case len(floats) == len(x):
			return floats
		case len(bools) == len(x):
			return bools
		case len(strs) == len(x):
			return strs
		default:
			return x // mixed: ToSequence recurses item by item
		}
	default:
		return v
	}
}

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"` // the XQuery error code, when err has one
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusForError(err), errorResponse{Error: err.Error(), Code: ErrorCode(err)})
}

// statusForError maps service errors onto HTTP semantics: overload is 503
// (retryable), deadline expiry 504, oversized results 413, client mistakes
// 400/404, and runtime query failures 422.
func statusForError(err error) int {
	var bad *BadRequestError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownDocument):
		return http.StatusNotFound
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrShuttingDown), errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrResultTooLarge):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusUnprocessableEntity
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
