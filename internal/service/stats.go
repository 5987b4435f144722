package service

import (
	"math"
	"sort"
	"sync"
	"time"

	"xqgo"
)

// latWindow is the sliding window of recent request latencies kept for
// percentile estimation.
const latWindow = 2048

// latBuckets are the cumulative-histogram upper bounds (seconds) used by the
// Prometheus exposition: roughly logarithmic from 500µs to 10s, the range a
// query service actually spans. Observations above the last bound land in
// the implicit +Inf bucket.
var latBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// latSeries is one sliding latency window, one per route (query vs.
// subscribe). Guarded by the owning statsCore's mutex.
type latSeries struct {
	lat []time.Duration
	pos int
}

func (l *latSeries) add(d time.Duration) {
	if len(l.lat) < latWindow {
		l.lat = append(l.lat, d)
		return
	}
	l.lat[l.pos] = d
	l.pos = (l.pos + 1) % latWindow
}

// exemplar links one histogram bucket to a recent trace that landed in it
// (OpenMetrics exemplar exposition: a trace id, the observed value, and when).
type exemplar struct {
	traceID string
	value   float64 // seconds
	ts      time.Time
}

// statsCore accumulates request outcomes. Latencies cover the whole
// service-level request — queue wait included — since that is what a
// client observes. Alongside the percentile window it maintains fixed
// histogram buckets (non-cumulative internally; cumulated at exposition
// time) so /metrics scrapes never sort.
type statsCore struct {
	mu       sync.Mutex
	served   uint64                // successful queries
	errors   uint64                // compile/eval/binding failures
	rejected uint64                // admission-control rejections
	timeouts uint64                // deadline exceeded / canceled
	routes   map[string]*latSeries // per-route windows ("query", "subscribe")
	start    time.Time

	hist     []uint64   // per-bucket counts; len(latBuckets)+1, last = +Inf
	exes     []exemplar // most recent traced observation per bucket
	histSum  time.Duration
	histCnt  uint64
	engine   xqgo.EngineCounters // lifetime totals of the per-request profile counters; peak max-merged
	profiled uint64              // requests that carried a profile

	// budgetTrips counts executions whose memory budget tripped, per route
	// class ("query", "subscribe").
	budgetTrips map[string]uint64
}

// noteBudgetTrip records one execution that exceeded its memory budget.
func (s *statsCore) noteBudgetTrip(route string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budgetTrips == nil {
		s.budgetTrips = make(map[string]uint64)
	}
	s.budgetTrips[route]++
}

// budgetTripTotals snapshots the per-route budget-trip counters.
func (s *statsCore) budgetTripTotals() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.budgetTrips))
	for k, v := range s.budgetTrips {
		out[k] = v
	}
	return out
}

func newStatsCore() *statsCore {
	return &statsCore{
		routes: make(map[string]*latSeries),
		hist:   make([]uint64, len(latBuckets)+1),
		exes:   make([]exemplar, len(latBuckets)+1),
		start:  time.Now(),
	}
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeError
	outcomeRejected
	outcomeTimeout
)

func (o outcome) String() string {
	switch o {
	case outcomeOK:
		return "ok"
	case outcomeError:
		return "error"
	case outcomeRejected:
		return "rejected"
	default:
		return "timeout"
	}
}

// histBucket returns the index of the histogram bucket for a latency: the
// first bucket whose upper bound is not exceeded, or the +Inf slot.
func histBucket(d time.Duration) int {
	secs := d.Seconds()
	for i, ub := range latBuckets {
		if secs <= ub {
			return i
		}
	}
	return len(latBuckets)
}

func (s *statsCore) observe(o outcome, d time.Duration) {
	s.observeTraced(o, d, "")
}

// observeTraced is observe with a trace-id exemplar: the request's latency
// bucket remembers the most recent traced request that landed in it, giving
// /metrics scrapes (OpenMetrics format) a direct link from a latency spike
// to a reconstructable trace.
func (s *statsCore) observeTraced(o outcome, d time.Duration, traceID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch o {
	case outcomeOK:
		s.served++
	case outcomeError:
		s.errors++
	case outcomeRejected:
		s.rejected++
		return // rejections are instantaneous; keep them out of latency
	case outcomeTimeout:
		s.timeouts++
	}
	s.routeSeries("query").add(d)
	b := histBucket(d)
	s.hist[b]++
	if traceID != "" {
		s.exes[b] = exemplar{traceID: traceID, value: d.Seconds(), ts: time.Now()}
	}
	s.histSum += d
	s.histCnt++
}

// observeFeed records one subscriber feed's total duration under the
// "subscribe" route window. Feeds stay out of the global request histogram —
// they are long-lived by design and would drown the query latency signal.
func (s *statsCore) observeFeed(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routeSeries("subscribe").add(d)
}

// routeSeries returns (creating on first use) the named route's window.
// Callers hold s.mu.
func (s *statsCore) routeSeries(route string) *latSeries {
	ls := s.routes[route]
	if ls == nil {
		ls = &latSeries{}
		s.routes[route] = ls
	}
	return ls
}

// exemplars snapshots the per-bucket exemplar table for OpenMetrics output.
func (s *statsCore) exemplars() []exemplar {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]exemplar(nil), s.exes...)
}

// addEngine folds one request's profile counters into the lifetime totals.
func (s *statsCore) addEngine(c xqgo.EngineCounters) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.profiled++
	s.engine.Add(c)
}

// histogram snapshots the bucket counts (non-cumulative), sum and count.
func (s *statsCore) histogram() (buckets []uint64, sum time.Duration, count uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.hist...), s.histSum, s.histCnt
}

// routePercentiles snapshots one route window's percentiles plus its sample
// count (count 0 means the route has seen no traffic).
func (s *statsCore) routePercentiles(route string) (p50, p90, p99, p999 time.Duration, count int) {
	s.mu.Lock()
	var buf []time.Duration
	if ls := s.routes[route]; ls != nil {
		buf = append(buf, ls.lat...)
	}
	s.mu.Unlock()
	p50, p90, p99, p999 = rankPercentiles(buf)
	return p50, p90, p99, p999, len(buf)
}

// rankPercentiles returns p50, p90, p99 and p99.9 of buf (0 when empty) by
// the nearest-rank definition: the smallest value with at least ceil(p*n)
// observations at or below it.
func rankPercentiles(buf []time.Duration) (p50, p90, p99, p999 time.Duration) {
	if len(buf) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := func(p float64) int {
		i := int(math.Ceil(p*float64(len(buf)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(buf) {
			i = len(buf) - 1
		}
		return i
	}
	return buf[idx(0.50)], buf[idx(0.90)], buf[idx(0.99)], buf[idx(0.999)]
}

// DocTotals aggregates the catalog accounting.
type DocTotals struct {
	Count int   `json:"count"`
	Bytes int64 `json:"bytes"`
	Nodes int64 `json:"nodes"`
}

// Snapshot is the service's stats surface: a plain struct that marshals to
// expvar-style JSON on GET /stats.
type Snapshot struct {
	Served     uint64 `json:"served"`
	Errors     uint64 `json:"errors"`
	Rejected   uint64 `json:"rejected"`
	Timeouts   uint64 `json:"timeouts"`
	InFlight   int64  `json:"inFlight"`
	Queued     int64  `json:"queued"`
	P50Micros  int64  `json:"p50Micros"`
	P90Micros  int64  `json:"p90Micros"`
	P99Micros  int64  `json:"p99Micros"`
	P999Micros int64  `json:"p999Micros"`
	// Routes breaks latency down per route class: "query" (one-shot request
	// latency, queue wait included) and "subscribe" (whole-feed lifetimes).
	Routes      map[string]RouteLatency `json:"routes"`
	PlanCache   PlanCacheStats          `json:"planCache"`
	Documents   DocTotals               `json:"documents"`
	UptimeSecs  float64                 `json:"uptimeSecs"`
	WorkerSlots int                     `json:"workerSlots"`
	// LeasedWorkers is the number of worker slots currently on loan to
	// morsel workers of running queries; QueryWorkers is the configured
	// per-query parallelism target (0 = intra-query parallelism off).
	LeasedWorkers int64               `json:"leasedWorkers"`
	QueryWorkers  int                 `json:"queryWorkers"`
	Engine        xqgo.EngineCounters `json:"engine"`
	SlowQueries   uint64              `json:"slowQueries"`
	// Subscriptions aggregates the pub/sub layer (POST /subscribe).
	Subscriptions SubscriptionTotals `json:"subscriptions"`
	// Governance reports the resource governor: process soft cap, live
	// tracked bytes, load-shed rejections, and per-route budget trips.
	Governance GovernanceTotals `json:"governance"`
}

// GovernanceTotals is the resource-governance accounting surface.
type GovernanceTotals struct {
	// ProcessSoftLimitBytes is the configured process soft cap (0 = off).
	ProcessSoftLimitBytes int64 `json:"processSoftLimitBytes"`
	// MaxQueryBytes is the configured default per-query budget (0 = off).
	MaxQueryBytes int64 `json:"maxQueryBytes"`
	// GovernedBytes is the live tracked-byte total across running executions.
	GovernedBytes int64 `json:"governedBytes"`
	// LoadShed counts admissions rejected because the governor was near the
	// soft cap.
	LoadShed int64 `json:"loadShed"`
	// BudgetTrips counts executions that exceeded their memory budget, per
	// route class ("query", "subscribe").
	BudgetTrips map[string]uint64 `json:"budgetTrips"`
}

// RouteLatency is one route class's sliding-window percentile breakdown.
type RouteLatency struct {
	Count      int   `json:"count"`
	P50Micros  int64 `json:"p50Micros"`
	P90Micros  int64 `json:"p90Micros"`
	P99Micros  int64 `json:"p99Micros"`
	P999Micros int64 `json:"p999Micros"`
}

// SubscriptionTotals is the pub/sub layer's lifetime accounting.
type SubscriptionTotals struct {
	// ActiveFeeds is the number of subscriber connections streaming now.
	ActiveFeeds int64 `json:"activeFeeds"`
	// Feeds counts subscriber connections admitted since start.
	Feeds int64 `json:"feeds"`
	// Registered counts subscriptions registered across all feeds.
	Registered int64 `json:"registered"`
	// Results counts result events delivered to subscribers.
	Results int64 `json:"results"`
	// Fallbacks counts store-required subscriptions (evaluated at feed end).
	Fallbacks int64 `json:"fallbacks"`
	// PeakBufferBytes is the largest window buffer any subscription held.
	PeakBufferBytes int64 `json:"peakBufferBytes"`
}

// Stats snapshots every counter in the service.
func (s *Service) Stats() Snapshot {
	st := s.stats
	st.mu.Lock()
	served, errs, rej, to := st.served, st.errors, st.rejected, st.timeouts
	start := st.start
	engine := st.engine
	st.mu.Unlock()
	routes := make(map[string]RouteLatency, 2)
	for _, route := range []string{"query", "subscribe"} {
		r50, r90, r99, r999, n := st.routePercentiles(route)
		routes[route] = RouteLatency{
			Count:      n,
			P50Micros:  r50.Microseconds(),
			P90Micros:  r90.Microseconds(),
			P99Micros:  r99.Microseconds(),
			P999Micros: r999.Microseconds(),
		}
	}
	query := routes["query"] // the top-level percentiles are the query route's
	docs, bytes, nodes := s.Catalog.Totals()
	_, slowTotal := s.slow.snapshot()
	return Snapshot{
		Served:        served,
		Errors:        errs,
		Rejected:      rej,
		Timeouts:      to,
		InFlight:      s.exec.InFlight(),
		Queued:        s.exec.Queued(),
		P50Micros:     query.P50Micros,
		P90Micros:     query.P90Micros,
		P99Micros:     query.P99Micros,
		P999Micros:    query.P999Micros,
		Routes:        routes,
		PlanCache:     s.plans.Stats(),
		Documents:     DocTotals{Count: docs, Bytes: bytes, Nodes: nodes},
		UptimeSecs:    time.Since(start).Seconds(),
		WorkerSlots:   s.exec.Workers(),
		LeasedWorkers: s.exec.Leased(),
		QueryWorkers:  s.cfg.QueryWorkers,
		Engine:        engine,
		SlowQueries:   slowTotal,
		Subscriptions: SubscriptionTotals{
			ActiveFeeds:     s.subs.active.Load(),
			Feeds:           s.subs.feeds.Load(),
			Registered:      s.subs.registered.Load(),
			Results:         s.subs.results.Load(),
			Fallbacks:       s.subs.fallbacks.Load(),
			PeakBufferBytes: s.subs.peakBuffer.Load(),
		},
		Governance: GovernanceTotals{
			ProcessSoftLimitBytes: s.gov.SoftLimit(),
			MaxQueryBytes:         s.cfg.MaxQueryBytes,
			GovernedBytes:         s.gov.InUse(),
			LoadShed:              s.gov.Sheds(),
			BudgetTrips:           st.budgetTripTotals(),
		},
	}
}
