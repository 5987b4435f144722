package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"xqgo"
	"xqgo/internal/limits"
	"xqgo/internal/trace"
)

// Config tunes the service.
type Config struct {
	// Workers bounds concurrent query executions (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker before the service
	// starts rejecting with ErrSaturated (default 64).
	QueueDepth int
	// PlanCacheSize bounds the compiled-plan LRU (default 256 plans).
	PlanCacheSize int
	// DefaultTimeout applies to requests that set none (default 10s).
	DefaultTimeout time.Duration
	// MaxResultBytes caps the serialized result size per request
	// (default 32 MiB; negative = unlimited).
	MaxResultBytes int64
	// Options are the compile options applied to every query. The join
	// strategy defaults to cost-based selection (StrategyAuto): catalog
	// documents get shared structural-join indexes seeded into every
	// request, so the planner prices them as free and switches descendant
	// chains to joins whenever the estimates favor them. Set
	// Options.Strategy to pin one engine (ForceNavigation disables index
	// seeding entirely).
	Options xqgo.Options
	// ParseOptions apply to registered documents; request bodies and feeds
	// are never stripped (or pooled), on either engine.
	ParseOptions xqgo.ParseOptions
	// SlowQueryThreshold: completed requests slower than this are recorded
	// in the slow-query log with their full profile (default 250ms;
	// negative disables the log).
	SlowQueryThreshold time.Duration
	// SlowLogSize bounds the slow-query ring buffer (default 64 entries).
	SlowLogSize int
	// DisableProfiling turns off the always-on counters-only profile
	// attached to every request (explain=1 requests still profile). With it
	// set, /metrics engine counters stay zero and slow-log entries carry no
	// profile.
	DisableProfiling bool
	// MaxSubscriptions bounds the number of continuous queries one
	// POST /subscribe request may register (default 16).
	MaxSubscriptions int
	// MaxSubscribers bounds concurrent subscriber feeds; beyond it new
	// /subscribe requests are rejected with 503 (default 64). Subscriber
	// feeds do not occupy executor worker slots — they are long-lived and
	// would starve the query pool.
	MaxSubscribers int
	// QueryWorkers sets the morsel-parallelism target per query: up to this
	// many workers (including the request's own goroutine) cooperate on
	// large scans, joins and FLWOR pipelines of one execution. 0 disables
	// intra-query parallelism (the default); negative means GOMAXPROCS.
	// Extra workers are leased round by round from the executor's idle
	// request slots, so a heavy query soaks up spare capacity but a busy
	// service automatically degrades to one worker per query, and nothing
	// is ever granted while requests wait in the admission queue.
	QueryWorkers int
	// DisableTracing turns off the per-request span capture that feeds
	// GET /traces, slow-log trace links and /metrics exemplars. Requests
	// carrying their own Request.Trace are still honored.
	DisableTracing bool
	// TraceRingSize bounds the completed-trace ring served by GET /traces
	// (default 256 entries).
	TraceRingSize int
	// MaxQueryBytes caps the engine-tracked bytes one request may hold
	// (store growth, batch pools, window buffers, materialized results);
	// overage fails that query with a structured XQGO0001 error. 0 disables
	// the per-query cap.
	MaxQueryBytes int64
	// ProcessSoftLimitBytes is the process-wide soft memory cap: it is
	// wired into the Go runtime's soft memory limit
	// (debug.SetMemoryLimit), and while the tracked bytes of running
	// queries sit near it, new work is rejected with 503 before executing.
	// 0 disables the cap.
	ProcessSoftLimitBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxResultBytes == 0 {
		c.MaxResultBytes = 32 << 20
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = 250 * time.Millisecond
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 64
	}
	if c.MaxSubscriptions <= 0 {
		c.MaxSubscriptions = 16
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = 64
	}
	if c.QueryWorkers < 0 {
		c.QueryWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Service ties the catalog, plan cache and executor together: the
// concurrent XQuery serving layer.
type Service struct {
	cfg     Config
	Catalog *Catalog
	plans   *PlanCache
	exec    *Executor
	stats   *statsCore
	slow    *slowLog
	subs    *subCore
	traces  *trace.Store
	gov     *limits.Governor

	shutdown     chan struct{}
	shutdownOnce sync.Once
}

// New creates a service with the given configuration.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	if cfg.ProcessSoftLimitBytes > 0 {
		// The governor sheds admissions near the cap; the Go runtime's soft
		// limit makes the GC fight for the same budget in the meantime.
		debug.SetMemoryLimit(cfg.ProcessSoftLimitBytes)
	}
	return &Service{
		cfg:      cfg,
		Catalog:  NewCatalog(),
		plans:    NewPlanCache(cfg.PlanCacheSize),
		exec:     NewExecutor(cfg.Workers, cfg.QueueDepth),
		stats:    newStatsCore(),
		slow:     newSlowLog(cfg.SlowLogSize),
		subs:     &subCore{live: make(map[uint64]*liveFeed)},
		traces:   trace.NewStore(cfg.TraceRingSize),
		gov:      limits.NewGovernor(cfg.ProcessSoftLimitBytes),
		shutdown: make(chan struct{}),
	}
}

// Governor exposes the process-wide memory governor (tracked bytes, soft
// cap, shed count) for stats and tests.
func (s *Service) Governor() *limits.Governor { return s.gov }

// Traces returns the completed-trace ring snapshot, newest first, plus the
// lifetime count of captured traces.
func (s *Service) Traces() ([]trace.Data, uint64) {
	return s.traces.List(), s.traces.Total()
}

// TraceByID looks up one completed trace by its 32-hex-digit trace id.
func (s *Service) TraceByID(id string) (trace.Data, bool) {
	return s.traces.Get(id)
}

// Shutdown moves the service into draining mode: live subscriber feeds end
// promptly with a terminal "goodbye" SSE event and new /subscribe requests
// are rejected with 503. Regular queries are unaffected — http.Server's own
// Shutdown drains those. Idempotent, safe from any goroutine.
func (s *Service) Shutdown() {
	s.shutdownOnce.Do(func() { close(s.shutdown) })
}

// ShuttingDown reports whether Shutdown has been called.
func (s *Service) ShuttingDown() bool {
	select {
	case <-s.shutdown:
		return true
	default:
		return false
	}
}

// ErrShuttingDown rejects new subscriber feeds after Shutdown.
var ErrShuttingDown = errors.New("service: shutting down")

// Config returns the effective (defaulted) configuration.
func (s *Service) Config() Config { return s.cfg }

// RegisterDocument parses and registers a document in the catalog.
func (s *Service) RegisterDocument(name string, r io.Reader) (DocInfo, error) {
	e, err := s.Catalog.Register(name, r, s.cfg.ParseOptions)
	if err != nil {
		return DocInfo{}, &BadRequestError{Err: err}
	}
	return e.info(), nil
}

// Request describes one query execution.
type Request struct {
	// Query is the XQuery source text.
	Query string
	// ContextDoc, when non-empty, names a catalog document used as the
	// initial context item (so /a/b paths work without fn:doc).
	ContextDoc string
	// Body, when non-nil, is a streaming XML input for this request: it is
	// parsed incrementally while the query runs, projected down to the
	// subtrees the query's static path set can reach, and becomes the
	// context item when ContextDoc is empty. It also resolves under
	// fn:doc("request:body"). The reader is consumed by the execution.
	Body io.Reader
	// StreamMode asks for the event-driven streaming evaluator when the
	// query is streamable and Body is set (see xqgo.Context.WithStreamMode):
	// results are emitted as each window of the input completes and the
	// document is never materialized. Non-streamable plans silently fall
	// back to regular (lazy, projected) ingestion; results are identical.
	StreamMode bool
	// Vars binds external variables; values go through xqgo.ToSequence.
	Vars map[string]any
	// Timeout overrides Config.DefaultTimeout when positive.
	Timeout time.Duration
	// MaxResultBytes overrides Config.MaxResultBytes when non-zero
	// (negative = unlimited).
	MaxResultBytes int64
	// Explain requests a wall-clock-timed execution profile in the result
	// (per-operator statistics, engine counters, rewrite trace, plan).
	Explain bool
	// Trace, when non-nil, adopts the caller's trace (e.g. continued from an
	// incoming traceparent header) instead of the service-created one. The
	// completed trace still lands in the GET /traces ring.
	Trace *xqgo.Trace
	// MaxQueryBytes overrides Config.MaxQueryBytes when non-zero (negative
	// = no per-query cap; governor tracking still applies).
	MaxQueryBytes int64

	// chargeOutput marks requests whose serialized result is retained in
	// memory (the materialized Query path), so result bytes count against
	// the memory budget; streamed responses leave the process as they are
	// written and are not charged.
	chargeOutput bool
}

// Result is a materialized query response.
type Result struct {
	// XML is the serialized result sequence.
	XML string
	// Cached reports whether the plan came from the plan cache.
	Cached bool
	// Elapsed is the total service-side latency (queue wait included).
	Elapsed time.Duration
	// Profile is the execution profile; non-nil only when Request.Explain
	// was set.
	Profile *ExplainProfile
	// TraceID identifies the request's captured trace in GET /traces/{id}
	// (empty when tracing is disabled).
	TraceID string
}

// ExplainProfile is the JSON-ready execution profile attached to explain
// responses and slow-log entries.
type ExplainProfile struct {
	// Timed reports whether per-operator wall time was collected (explain
	// requests) or only counters (the always-on service default).
	Timed bool `json:"timed"`
	// Operators lists per-operator statistics, in plan order; only
	// operators that ran at least once appear.
	Operators []xqgo.OpProfile `json:"operators"`
	// Counters are the execution-wide engine counters.
	Counters xqgo.EngineCounters `json:"counters"`
	// Rewrites is the optimizer trace recorded when the plan was compiled.
	Rewrites []xqgo.RewriteEvent `json:"rewrites,omitempty"`
	// RuleFires counts optimizer rule applications by rule name.
	RuleFires map[string]int `json:"ruleFires,omitempty"`
	// Plan is the optimized expression tree rendering.
	Plan string `json:"plan,omitempty"`
	// Strategy is the join strategy the path operators resolved to during
	// this execution ("navigation", "binary-join", "twig-join"; "mixed"
	// when different branches chose differently; empty when no
	// join-eligible path ran).
	Strategy string `json:"strategy,omitempty"`
	// CardinalityError is the worst estimate-vs-observed relative error
	// across the operators that made a strategy choice:
	// |estimated - observed| / max(observed, 1) per instantiation. It is
	// the signal the planner's feedback cache corrects on the next run.
	CardinalityError float64 `json:"cardinalityError,omitempty"`
}

func explainProfile(q *xqgo.Query, rep xqgo.ProfileReport) *ExplainProfile {
	ep := &ExplainProfile{
		Timed:     rep.Timed,
		Operators: rep.Operators,
		Counters:  rep.Counters,
		Rewrites:  q.RewriteTrace(),
		RuleFires: q.RuleFires(),
		Plan:      q.PlanInfo().Text,
	}
	for _, op := range rep.Operators {
		if op.Strategy == "" {
			continue
		}
		switch ep.Strategy {
		case "", op.Strategy:
			ep.Strategy = op.Strategy
		default:
			ep.Strategy = "mixed"
		}
		if op.Starts > 0 {
			observed := float64(op.Items) / float64(op.Starts)
			e := math.Abs(float64(op.EstItems)-observed) / math.Max(observed, 1)
			if e > ep.CardinalityError {
				ep.CardinalityError = e
			}
		}
	}
	return ep
}

// SlowQueries returns the retained slow-query log entries (newest first)
// and the lifetime count of slow requests.
func (s *Service) SlowQueries() ([]SlowEntry, uint64) { return s.slow.snapshot() }

// ErrResultTooLarge is returned when the serialized result exceeds the
// per-request byte limit. Streaming responses are truncated at the limit.
var ErrResultTooLarge = errors.New("service: result exceeds size limit")

// ErrOverloaded rejects new work while the process memory governor sits
// near its soft cap (load shedding: a fast 503 beats an OOM kill).
var ErrOverloaded = errors.New("service: memory governor near capacity")

// ErrUnknownDocument is wrapped into errors for requests naming a catalog
// document that is not registered.
var ErrUnknownDocument = errors.New("service: unknown document")

// BadRequestError marks client-side failures (malformed query text, bad
// variable values, unparseable documents), as opposed to evaluation errors.
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// limitWriter enforces the result-size cap.
type limitWriter struct {
	w   io.Writer
	rem int64 // negative = unlimited
}

func (l *limitWriter) Write(p []byte) (int, error) {
	if l.rem < 0 {
		return l.w.Write(p)
	}
	if int64(len(p)) > l.rem {
		return 0, ErrResultTooLarge
	}
	n, err := l.w.Write(p)
	l.rem -= int64(n)
	return n, err
}

// budgetWriter charges serialized result bytes against the request's
// memory budget (the materialized path retains them until the response is
// written out).
type budgetWriter struct {
	w io.Writer
	b *limits.Budget
}

func (bw *budgetWriter) Write(p []byte) (int, error) {
	if err := bw.b.Charge(int64(len(p))); err != nil {
		return 0, err
	}
	return bw.w.Write(p)
}

// Query runs a request to completion and returns the materialized result.
func (s *Service) Query(ctx context.Context, req Request) (Result, error) {
	var buf bytes.Buffer
	req.chargeOutput = true
	cached, elapsed, prof, traceID, err := s.run(ctx, req, &buf)
	return Result{XML: buf.String(), Cached: cached, Elapsed: elapsed,
		Profile: prof, TraceID: traceID}, err
}

// Execute streams the serialized result to w as it is produced (the
// engine's time-to-first-answer path). The plan-cache flag and trace id are
// returned; errors after the first byte reach the caller with the output
// truncated. Request.Explain is ignored (a streamed body has no profile
// envelope).
func (s *Service) Execute(ctx context.Context, req Request, w io.Writer) (bool, string, error) {
	req.Explain = false
	cached, _, _, traceID, err := s.run(ctx, req, w)
	return cached, traceID, err
}

// run is the shared request path: admission control, deadline, plan-cache
// lookup, per-request context assembly, execution, stats, profiling,
// tracing. The request's span tree — a "request" root over queue/plan/
// build-context stages plus the engine's own execute subtree — is finished
// into the trace ring whatever the outcome.
func (s *Service) run(ctx context.Context, req Request, w io.Writer) (cached bool, elapsed time.Duration, eprof *ExplainProfile, traceID string, err error) {
	start := time.Now()
	// Load shedding: while running queries hold tracked bytes near the
	// process soft cap, reject before spending anything on this request.
	if s.gov.Overloaded() {
		s.gov.NoteShed()
		s.stats.observeTraced(outcomeRejected, time.Since(start), "")
		return false, time.Since(start), nil, "", ErrOverloaded
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	tr := req.Trace
	if tr == nil && !s.cfg.DisableTracing {
		tr = xqgo.NewTrace()
	}
	var reqSpan *xqgo.TraceSpan
	if tr != nil {
		traceID = tr.ID()
		reqSpan = tr.StartSpan("request", nil).SetAttr("route", "query")
		if req.ContextDoc != "" {
			reqSpan.SetAttr("doc", req.ContextDoc)
		}
	}

	// Per-query memory budget: charged by the engine's hot allocation
	// sites, released wholesale when the request finishes. Created even
	// without a per-query cap when a governor soft cap is set, so running
	// queries' tracked bytes feed the admission check above.
	maxQ := req.MaxQueryBytes
	if maxQ == 0 {
		maxQ = s.cfg.MaxQueryBytes
	}
	if maxQ < 0 {
		maxQ = 0
	}
	var budget *limits.Budget
	if maxQ > 0 || s.gov.SoftLimit() > 0 {
		budget = limits.NewBudget(maxQ, s.gov)
		budget.SetTraceID(traceID)
		defer budget.ReleaseAll()
	}

	var q *xqgo.Query
	var prof *xqgo.Profile
	err = s.exec.Do(rctx, func() error {
		if tr != nil {
			// Admission wait: everything between arrival and worker pickup.
			tr.AddSpan("queue", reqSpan, start, time.Now())
		}
		opts := s.cfg.Options
		pstart := time.Now()
		plan, fromCache, cerr := s.plans.Get(req.Query, &opts)
		cached = fromCache
		if tr != nil {
			tr.AddSpan("plan", reqSpan, pstart, time.Now()).
				SetAttr("cached", fromCache)
		}
		if cerr != nil {
			return &BadRequestError{Err: cerr}
		}
		q = plan
		bstart := time.Now()
		qctx, berr := s.buildContext(req)
		if tr != nil {
			tr.AddSpan("build-context", reqSpan, bstart, time.Now())
		}
		if berr != nil {
			return berr
		}
		qctx.WithTrace(tr)
		// Explain requests pay for per-pull timing; otherwise a cheap
		// counters-only profile feeds /metrics and the slow-query log.
		switch {
		case req.Explain:
			prof = q.NewProfile()
		case !s.cfg.DisableProfiling:
			prof = q.NewCountersProfile()
		}
		if prof != nil {
			qctx.WithProfile(prof)
		}
		if budget != nil {
			qctx.WithBudget(budget)
		}
		limit := req.MaxResultBytes
		if limit == 0 {
			limit = s.cfg.MaxResultBytes
		}
		if limit < 0 {
			limit = -1
		}
		out := w
		if budget != nil && req.chargeOutput {
			out = &budgetWriter{w: w, b: budget}
		}
		return q.ExecuteContext(rctx, qctx, &limitWriter{w: out, rem: limit})
	})
	elapsed = time.Since(start)
	if budget != nil && budget.Trips() > 0 {
		s.stats.noteBudgetTrip("query")
	}
	oc := classify(err)
	if tr != nil {
		reqSpan.SetAttr("outcome", oc.String())
		if err != nil {
			reqSpan.SetAttr("error", err.Error())
		}
		reqSpan.End()
		s.traces.Add(tr.Finish())
	}
	s.stats.observeTraced(oc, elapsed, traceID)
	if prof != nil {
		rep := prof.Report()
		s.stats.addEngine(rep.Counters)
		ep := explainProfile(q, rep)
		if req.Explain {
			eprof = ep
		}
		if s.cfg.SlowQueryThreshold > 0 && elapsed >= s.cfg.SlowQueryThreshold && oc != outcomeRejected {
			s.slow.add(SlowEntry{
				Time: time.Now(), Query: req.Query, Doc: req.ContextDoc,
				Micros: elapsed.Microseconds(), Outcome: oc.String(),
				Cached: cached, Profile: ep, TraceID: traceID,
				Strategy: ep.Strategy, CardinalityError: ep.CardinalityError,
			})
		}
	}
	return cached, elapsed, eprof, traceID, err
}

func classify(err error) outcome {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrOverloaded):
		return outcomeRejected
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return outcomeTimeout
	default:
		return outcomeError
	}
}

// buildContext assembles the per-request evaluation context: every catalog
// document is visible to fn:doc(name), collections to fn:collection(name),
// the context document's shared structural-join index is seeded, external
// variables are bound, and a streaming request body (when present) is
// attached. The request deadline is wired by the context-first execution
// call (ExecuteContext), not here.
func (s *Service) buildContext(req Request) (*xqgo.Context, error) {
	qctx := xqgo.NewContext()
	// Index seeding follows the join strategy: anything but ForceNavigation
	// can use the shared catalog indexes (under Auto the cost model prices a
	// seeded index as free).
	seedIndexes := s.cfg.Options.Strategy != xqgo.ForceNavigation
	entries := s.Catalog.snapshot()
	for _, e := range entries {
		qctx.RegisterDocument(e.Name, e.Doc)
		if seedIndexes {
			if idx, ok := e.builtIndex(); ok {
				qctx.SeedIndex(e.Doc, idx)
			}
		}
	}
	for name, members := range s.Catalog.collectionsAll() {
		var seq xqgo.Sequence
		for _, e := range members {
			seq = append(seq, e.Doc.Root())
		}
		qctx.RegisterCollection(name, seq)
	}
	if req.ContextDoc != "" {
		e, ok := s.Catalog.Get(req.ContextDoc)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownDocument, req.ContextDoc)
		}
		qctx.WithContextNode(e.Doc)
		if seedIndexes {
			// Force-build (once) and share the index for the document the
			// query will actually navigate.
			qctx.SeedIndex(e.Doc, e.Index())
		}
	}
	for name, val := range req.Vars {
		seq, err := xqgo.ToSequence(val)
		if err != nil {
			return nil, &BadRequestError{Err: fmt.Errorf("variable $%s: %v", name, err)}
		}
		qctx.Bind(name, seq)
	}
	if req.Body != nil {
		qctx.WithStreamingInput(req.Body, StreamBodyURI)
		if req.StreamMode {
			qctx.WithStreamMode(true)
		}
	}
	if s.cfg.QueryWorkers > 1 {
		// Morsel workers lease idle request slots from the executor, so
		// intra-query parallelism shares one budget with admission control.
		qctx.WithWorkers(s.cfg.QueryWorkers).WithWorkerLimiter(s.exec)
	}
	return qctx, nil
}

// StreamBodyURI is the URI a streamed request body resolves under
// (fn:doc("request:body")).
const StreamBodyURI = "request:body"
