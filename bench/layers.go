package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"xqgo"
	"xqgo/internal/expr"
	"xqgo/internal/optimizer"
	xqruntime "xqgo/internal/runtime"
	"xqgo/internal/serializer"
	"xqgo/internal/service"
	"xqgo/internal/store"
	"xqgo/internal/structjoin"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
	"xqgo/internal/xqparse"
)

const (
	// replayOps bounds the traced replay; it also stops after a fifth of the
	// run's seconds.
	replayOps = 500
	// batchCalls bounds each layer's allocation batch.
	batchCalls = 64
)

// literalShift moves the unique literals of adhoc-compile apart between the
// phases of a traced run, so that no phase finds the plans of an earlier one
// in the cache.
const literalShift = 100_000_000

// layerRun is everything a traced run measured for one workload.
type layerRun struct {
	metrics  []metric
	shares   map[string]float64 // layer group -> share of in-process time
	warnings []string
	trace    traceFile
	done     int
	failed   int
	firstErr error
}

// tracedRun produces the per-layer figures of one workload: a single-client
// HTTP window read against GET /stats, an untraced and a traced in-process
// replay of the same operations, and one allocation batch per layer.
func tracedRun(in *instance, spec workloadSpec, seed int64, cfg runConfig) (*layerRun, error) {
	// Three fifths of the run go to the HTTP window, so that at 25 s the
	// rarest request kind, a feed of stream-feed, is sent the 21 times its
	// median needs; a fifth each to the two replays.
	fifth := cfg.measure() / 5
	lr := &layerRun{}

	// HTTP window, recorder off, one client so that the figures are those of
	// an uncontended request. Set-up has warmed the service, and a warm-up
	// here would count in the /stats differences but not in the window.
	before, err := readStats(in.srv.base)
	if err != nil {
		return nil, err
	}
	win := runLoop(in, 1, 0, 3*fifth)
	after, err := readStats(in.srv.base)
	if err != nil {
		return nil, err
	}
	lr.done, lr.failed, lr.firstErr = win.attempted, win.failed, win.firstErr

	// The same operations in-process, with spans and then without: the
	// difference is what recording costs.
	replay := func(rec *recorder, ops int, shift int64, limit time.Duration) (*replayer, time.Duration) {
		rp := newReplayer(in.srv.svc, rec)
		start := time.Now()
		for i := 0; i < ops && (limit == 0 || time.Since(start) < limit); i++ {
			o := in.sc.op(0, i)
			if o.literal != 0 {
				o.literal += shift
			}
			rp.run(&o, i)
		}
		return rp, time.Since(start)
	}
	rec := newRecorder(replayOps * 16)
	traced, tracedTook := replay(rec, replayOps, literalShift, fifth)
	plain, plainTook := replay(nil, traced.done, 2*literalShift, 0)
	for _, rp := range []*replayer{traced, plain} {
		lr.done += rp.done
		lr.failed += rp.failed
		if lr.firstErr == nil {
			lr.firstErr = rp.firstErr
		}
	}
	lr.trace = traceFile{Workload: spec.name, Seed: seed, Counts: rec.counts, Spans: rec.spans}

	agg := aggregate(rec)
	b := runBatches(in, traced.done, cfg.batchBytes)
	lr.metrics = layerMetrics(agg, b, &win, before, after,
		(tracedTook.Seconds()-plainTook.Seconds())/plainTook.Seconds())
	lr.shares = agg.shares()
	lr.warnings = validity(spec, lr.shares, metricValue(lr.metrics, "service.plancache_hit_share"))
	return lr, nil
}

func readStats(base string) (service.Snapshot, error) {
	var snap service.Snapshot
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(data, &snap)
}

// spanAgg is the spans of a replay folded by name.
type spanAgg struct {
	ns     map[string]int64 // total self time per span name
	n      map[string]int64 // spans per name
	ops    int64
	counts map[string]int64
	// streamSelf is, over the operations that ran the streaming evaluator,
	// its time minus the time of a bare scan of the same bytes.
	streamSelf int64
}

func aggregate(rec *recorder) *spanAgg {
	a := &spanAgg{ns: map[string]int64{}, n: map[string]int64{}, counts: rec.counts}
	self := selfTimes(rec.spans)
	perOp := map[int32]map[string]int64{}
	for i, s := range rec.spans {
		// Self time: an op span keeps only what no layer call inside it
		// covers, which is the replay's own bookkeeping.
		a.ns[s.Name] += self[i]
		a.n[s.Name]++
		if s.Name == spanOp {
			a.ops++
			continue
		}
		if perOp[s.Op] == nil {
			perOp[s.Op] = map[string]int64{}
		}
		perOp[s.Op][s.Name] += self[i]
	}
	for _, m := range perOp {
		if eval := m[spanFeed] + m[spanSubscriber]; eval > 0 {
			a.streamSelf += eval - m[spanScan]
		}
	}
	return a
}

// per divides a span's total time by a count, in the unit given in ns.
func (a *spanAgg) per(name string, count int64, unit time.Duration) float64 {
	if count == 0 {
		return 0
	}
	return float64(a.ns[name]) / float64(count) / float64(unit)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (a *spanAgg) inproc() int64 {
	return a.ns[spanQuery] + a.ns[spanExecute] + a.ns[spanRegister] + a.ns[spanSubscriber]
}

// shares gives each layer group's share of the in-process time of the
// replayed operations.
func (a *spanAgg) shares() map[string]float64 {
	total := float64(a.inproc())
	share := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += a.ns[n]
		}
		return ratio(float64(ns), total)
	}
	return map[string]float64{
		"compile":    share(spanParse, spanOptimize, spanPaths, spanCompile, spanStreamComp),
		"execute":    share(spanExec, spanSerialize),
		"xmlparse":   share(spanScan, spanProjected, spanBuild),
		"store":      share(spanDocStats),
		"structjoin": share(spanIndex),
		"streamexec": ratio(float64(a.streamSelf), total),
	}
}

// validity warns when the layers a workload was built to load take less than
// half of its in-process time, or its plan-cache hit share is off the value
// it was built to have.
func validity(spec workloadSpec, shares map[string]float64, hitShare float64) []string {
	var warn []string
	built := 0.0
	for _, g := range spec.dominant {
		built += shares[g]
	}
	if built < 0.5 {
		warn = append(warn, fmt.Sprintf("%s: %s take %.0f%% of in-process time, below the 50%% the workload was built for",
			spec.name, strings.Join(spec.dominant, "+"), 100*built))
	}
	if d := hitShare - spec.hitShare; d > 0.02 || d < -0.02 {
		warn = append(warn, fmt.Sprintf("%s: plan-cache hit share %.3f, built to be %.0f", spec.name, hitShare, spec.hitShare))
	}
	return warn
}

// batches holds what the per-layer batches measured. Each allocation figure
// comes from one pair of memory-statistics readings around all the calls of
// the batch.
type batches struct {
	queries                                        int
	parseAllocs, optimizeAllocs, compileAllocs     float64
	evals                                          int
	evalAllocs, evalKB, serializeAllocs            float64
	buildMBs, buildAllocsKB, scanMBs, scanAllocsKB float64
	tokensPerKB                                    float64
	docs                                           int
	statsMs, storeBytesPerByte, nodesPerKB         float64
	indexMs, indexAllocsPerNode, twigUs, binaryUs  float64
	chains                                         int
}

// measured runs fn between two memory-statistics readings and returns what it
// allocated and how long it took.
func measured(fn func()) (mallocs, bytes float64, took time.Duration) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	took = time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc), took
}

// runBatches measures each layer's allocations over the inputs of client 0's
// first ops operations; each parsing batch reads up to batchBytes of XML.
func runBatches(in *instance, ops, batchBytes int) batches {
	var b batches

	// The first distinct query texts and catalog queries of client 0, in the
	// order it sends them.
	type call struct {
		q   *xqgo.Query
		doc *service.CatalogEntry
	}
	var texts []string
	var calls []call
	plans := map[string]*xqgo.Query{}
	for i := 0; i < ops && (len(texts) < batchCalls || len(calls) < batchCalls); i++ {
		o := in.sc.op(0, i)
		for _, text := range append(o.queries, o.query) {
			if _, seen := plans[text]; text == "" || seen {
				continue
			}
			q, err := xqgo.Compile(text, nil)
			if err != nil {
				continue
			}
			plans[text] = q
			if len(texts) < batchCalls {
				texts = append(texts, text)
			}
		}
		if o.kind != opQuery && o.kind != opQueryStream || len(calls) == batchCalls {
			continue
		}
		if entry, ok := in.srv.svc.Catalog.Get(o.doc); ok && plans[o.query] != nil {
			calls = append(calls, call{plans[o.query], entry})
		}
	}

	// Compile side.
	b.queries = len(texts)
	asts := make([]*expr.Query, len(texts))
	n := float64(max(1, len(texts)))
	m, _, _ := measured(func() {
		for i, t := range texts {
			asts[i], _ = xqparse.Parse(t)
		}
	})
	b.parseAllocs = m / n
	m, _, _ = measured(func() {
		for i := range asts {
			asts[i] = optimizer.Optimize(asts[i], optimizer.Options{Trace: optimizer.NewTrace()})
		}
	})
	b.optimizeAllocs = m / n
	m, _, _ = measured(func() {
		for _, ast := range asts {
			_, _ = xqruntime.Compile(ast, xqruntime.Options{
				Strategy: xqgo.StrategyAuto, Projection: optimizer.ExtractPaths(ast)})
		}
	})
	b.compileAllocs = m / n

	// Execute and serialize.
	b.evals = len(calls)
	seqs := make([]xdm.Sequence, len(calls))
	n = float64(max(1, len(calls)))
	m, bytesAlloc, _ := measured(func() {
		for i, c := range calls {
			seqs[i], _ = c.q.Eval(xqgo.NewContext().WithContextNode(c.doc.Doc).SeedIndex(c.doc.Doc, c.doc.Index()))
		}
	})
	b.evalAllocs, b.evalKB = m/n, bytesAlloc/1024/n
	m, _, _ = measured(func() {
		for _, seq := range seqs {
			_ = serializer.New(io.Discard, serializer.Options{OmitXMLDecl: true}).Sequence(seq)
		}
	})
	b.serializeAllocs = m / n

	// Parsing, store and index: the XML the workload hands to the server.
	var inputs [][]byte
	total := 0
	for _, src := range in.sc.inputs() {
		if total+len(src) > batchBytes && len(inputs) > 0 {
			break
		}
		inputs = append(inputs, src)
		total += len(src)
	}
	b.docs = len(inputs)
	kb, mb := float64(total)/1024, float64(total)/1e6
	docs := make([]*store.Document, len(inputs))
	runtime.GC()
	var heapBefore, heapAfter runtime.MemStats
	runtime.ReadMemStats(&heapBefore)
	m, _, took := measured(func() {
		for i, src := range inputs {
			docs[i], _ = xmlparse.Parse(bytes.NewReader(src), xmlparse.Options{})
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&heapAfter)
	b.buildMBs, b.buildAllocsKB = mb/took.Seconds(), m/kb
	b.storeBytesPerByte = (float64(heapAfter.HeapAlloc) - float64(heapBefore.HeapAlloc)) / float64(total)
	var ic ingestCounts
	m, _, took = measured(func() {
		for _, src := range inputs {
			_ = scan(src)
		}
	})
	b.scanMBs, b.scanAllocsKB = mb/took.Seconds(), m/kb
	for _, src := range inputs {
		_, _ = xmlparse.Parse(bytes.NewReader(src), xmlparse.Options{Stats: &ic})
	}
	b.tokensPerKB = float64(ic.tokens) / kb
	nodes := 0
	start := time.Now()
	for _, d := range docs {
		if d != nil {
			nodes += d.NumNodes()
			d.Stats()
		}
	}
	b.statsMs = time.Since(start).Seconds() * 1e3 / float64(max(1, len(docs)))
	b.nodesPerKB = float64(nodes) / kb
	idx := make([]*structjoin.Index, len(docs))
	m, _, took = measured(func() {
		for i, d := range docs {
			if d != nil {
				idx[i] = structjoin.BuildIndex(d)
			}
		}
	})
	b.indexMs = took.Seconds() * 1e3 / float64(max(1, len(docs)))
	b.indexAllocsPerNode = m / float64(max(1, nodes))

	// One descendant chain per document that has the names for it, as a
	// holistic path join and as a pipeline of binary stack-tree joins.
	for _, x := range idx {
		if x == nil {
			continue
		}
		lists := chainLists(x)
		if lists == nil {
			continue
		}
		b.chains++
		start := time.Now()
		structjoin.PathMatchLeaf(lists, make([]bool, len(lists)))
		b.twigUs += float64(time.Since(start)) / 1e3
		start = time.Now()
		cur := lists[0]
		for _, next := range lists[1:] {
			cur = structjoin.DistinctDescendants(structjoin.StackTreeDesc(cur, next, false))
		}
		_ = cur
		b.binaryUs += float64(time.Since(start)) / 1e3
	}
	if b.chains > 0 {
		b.twigUs /= float64(b.chains)
		b.binaryUs /= float64(b.chains)
	}
	return b
}

// chainLists returns the posting lists of //a//b//c for a Deep-shaped
// document, of //OrderLine//ID for an Orders-shaped one, and nil otherwise.
func chainLists(x *structjoin.Index) []structjoin.List {
	for _, names := range [][]string{{"a", "b", "c"}, {"OrderLine", "ID"}} {
		lists := make([]structjoin.List, len(names))
		for i, n := range names {
			lists[i] = x.Elements(xdm.LocalName(n))
		}
		if len(lists[0]) > 0 && len(lists[len(lists)-1]) > 0 {
			return lists
		}
	}
	return nil
}

// layerMetrics lays out every per-layer metric, in the order of
// BENCHMARK.json. A layer the workload does not reach reports 0.
func layerMetrics(a *spanAgg, b batches, win *window, before, after service.Snapshot, overhead float64) []metric {
	c := a.counts
	us, ms := time.Microsecond, time.Millisecond
	compiles := a.n[spanParse]
	execs := a.n[spanExec]
	mbOf := func(key string) float64 { return float64(c[key]) / 1e6 }
	mbPerSec := func(bytesKey, span string) float64 { return ratio(mbOf(bytesKey), float64(a.ns[span])/1e9) }
	plans := float64(c["runtime.plan_navigation"] + c["runtime.plan_binary"] + c["runtime.plan_twig"])

	hits := float64(after.PlanCache.Hits - before.PlanCache.Hits)
	misses := float64(after.PlanCache.Misses - before.PlanCache.Misses)
	answered := float64(after.Served+after.Errors+after.Rejected+after.Timeouts) -
		float64(before.Served+before.Errors+before.Rejected+before.Timeouts)
	winPuts := 0
	for _, s := range win.samples {
		if s.kind == opPut {
			winPuts++
		}
	}
	kindP50 := func(name string, kinds ...opKind) metric {
		return percentileOf(name, win.latencies(func(s sample) bool {
			for _, k := range kinds {
				if s.kind == k {
					return true
				}
			}
			return false
		}, false), 0.5)
	}
	inprocUs := ratio(float64(a.inproc())/1e3, float64(a.ops))
	var httpNs time.Duration
	for _, s := range win.samples {
		httpNs += s.latency
	}
	httpUs := ratio(float64(httpNs)/1e3, float64(len(win.samples)))

	m := func(name, unit string, v float64, n int64) metric {
		return metric{Name: name, Unit: unit, Value: v, N: int(n)}
	}
	return []metric{
		m("xqparse.us_per_query", "us", a.per(spanParse, compiles, us), compiles),
		m("xqparse.allocs_per_query", "count", b.parseAllocs, int64(b.queries)),
		m("optimizer.us_per_query", "us", a.per(spanOptimize, compiles, us), compiles),
		m("optimizer.allocs_per_query", "count", b.optimizeAllocs, int64(b.queries)),
		m("optimizer.rule_fires_per_query", "count", ratio(float64(c["optimizer.rule_fires"]), float64(compiles)), compiles),
		m("optimizer.extract_paths_us_per_query", "us", a.per(spanPaths, compiles, us), compiles),
		m("runtime.compile_us_per_query", "us", a.per(spanCompile, compiles, us), compiles),
		m("runtime.compile_allocs_per_query", "count", b.compileAllocs, int64(b.queries)),
		m("runtime.exec_us_per_op", "us", a.per(spanExec, execs, us), execs),
		m("runtime.exec_allocs_per_op", "count", b.evalAllocs, int64(b.evals)),
		m("runtime.exec_kb_per_op", "KB/op", b.evalKB, int64(b.evals)),
		m("runtime.items_per_op", "count", ratio(float64(c["runtime.items"]), float64(execs)), execs),
		m("runtime.first_item_us", "us", a.per(spanFirstItem, a.n[spanFirstItem], us), a.n[spanFirstItem]),
		m("runtime.nodes_materialized_per_op", "count", ratio(float64(c["runtime.nodes_materialized"]), float64(execs)), execs),
		m("runtime.plan_twig_share", "ratio", ratio(float64(c["runtime.plan_twig"]), plans), int64(plans)),
		m("serializer.us_per_op", "us", a.per(spanSerialize, a.n[spanSerialize], us), a.n[spanSerialize]),
		m("serializer.mb_s", "MB/s", mbPerSec("serializer.bytes", spanSerialize), a.n[spanSerialize]),
		m("serializer.allocs_per_op", "count", b.serializeAllocs, int64(b.evals)),
		m("xmlparse.build_mb_s", "MB/s", b.buildMBs, int64(b.docs)),
		m("xmlparse.build_allocs_per_kb", "count", b.buildAllocsKB, int64(b.docs)),
		m("xmlparse.scan_mb_s", "MB/s", b.scanMBs, int64(b.docs)),
		m("xmlparse.scan_allocs_per_kb", "count", b.scanAllocsKB, int64(b.docs)),
		m("xmlparse.projected_mb_s", "MB/s", mbPerSec("xmlparse.projected_bytes", spanProjected), a.n[spanProjected]),
		m("xmlparse.nodes_skipped_share", "ratio", ratio(float64(c["xmlparse.nodes_skipped"]),
			float64(c["xmlparse.nodes_skipped"]+c["xmlparse.nodes_built"])), a.n[spanProjected]),
		m("xmlparse.tokens_per_kb", "count", b.tokensPerKB, int64(b.docs)),
		m("store.docstats_ms_per_doc", "ms", b.statsMs, int64(b.docs)),
		m("store.bytes_per_input_byte", "ratio", b.storeBytesPerByte, int64(b.docs)),
		m("store.nodes_per_kb", "count", b.nodesPerKB, int64(b.docs)),
		m("structjoin.index_build_ms_per_doc", "ms", b.indexMs, int64(b.docs)),
		m("structjoin.index_allocs_per_node", "count", b.indexAllocsPerNode, int64(b.docs)),
		m("structjoin.twig_us_per_chain", "us", b.twigUs, int64(b.chains)),
		m("structjoin.binary_us_per_chain", "us", b.binaryUs, int64(b.chains)),
		m("streamexec.compile_us_per_query", "us", a.per(spanStreamComp, a.n[spanStreamComp], us), a.n[spanStreamComp]),
		m("streamexec.feed_mb_s", "MB/s", ratio(mbOf("streamexec.feed_bytes"), float64(a.ns[spanFeed]+a.ns[spanSubscriber])/1e9),
			a.n[spanFeed]+a.n[spanSubscriber]),
		m("streamexec.self_ms_per_mb", "ms", ratio(float64(a.streamSelf)/float64(ms), mbOf("streamexec.feed_bytes")),
			a.n[spanFeed]+a.n[spanSubscriber]),
		m("streamexec.peak_buffer_bytes", "bytes", float64(c["streamexec.peak_buffer"]), a.n[spanFeed]+a.n[spanSubscriber]),
		m("streamexec.windows_per_mb", "count", ratio(float64(c["streamexec.windows"]), mbOf("streamexec.feed_bytes")),
			a.n[spanFeed]+a.n[spanSubscriber]),
		m("streamexec.fallback_share", "ratio", ratio(float64(c["streamexec.fallbacks"]), float64(c["streamexec.executions"])),
			c["streamexec.executions"]),
		m("service.inproc_us_per_op", "us", inprocUs, a.ops),
		m("service.http_overhead_us_per_op", "us", httpUs-inprocUs, int64(len(win.samples))),
		m("service.plancache_hit_share", "ratio", ratio(hits, hits+misses), int64(hits+misses)),
		m("service.plancache_evictions_per_kop", "count",
			ratio(1000*float64(after.PlanCache.Evictions-before.PlanCache.Evictions), float64(win.attempted)), int64(win.attempted)),
		m("service.index_builds_per_put", "count",
			ratio(float64(after.Engine.IndexBuilds-before.Engine.IndexBuilds), float64(winPuts)), int64(winPuts)),
		m("service.rejected_share", "ratio", ratio(float64(after.Rejected-before.Rejected), answered), int64(answered)),
		percentileOf("service.latency_p99_ms", win.latencies(anySample, false), 0.99),
		kindP50("service.query_p50_ms", opQuery, opQueryStream, opBodyQuery),
		kindP50("service.put_p50_ms", opPut),
		kindP50("service.subscribe_p50_ms", opSubscribe),
		m("service.heap_peak_mb", "MB", float64(win.heapSys)/1e6, 1),
		m("bench.trace_overhead_share", "ratio", overhead, a.ops),
	}
}

func metricValue(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// sharesLine renders the validity report's shares in a fixed order.
func sharesLine(shares map[string]float64) string {
	var sb strings.Builder
	for _, g := range []string{"compile", "execute", "xmlparse", "streamexec", "store", "structjoin"} {
		fmt.Fprintf(&sb, "%s %.1f%%  ", g, 100*shares[g])
	}
	return strings.TrimSpace(sb.String())
}
