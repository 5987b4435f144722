package main

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"

	"xqgo"
	"xqgo/internal/optimizer"
	"xqgo/internal/projection"
	"xqgo/internal/runtime"
	"xqgo/internal/serializer"
	"xqgo/internal/service"
	"xqgo/internal/structjoin"
	"xqgo/internal/xmlparse"
	"xqgo/internal/xqparse"
)

// Span names of the traced replay. The in-process spans are what the service
// does for one operation as a whole; every other span is one layer's public
// entry point called again on the same input, so that a layer's time can be
// set against the whole.
const (
	spanOp         = "op"
	spanQuery      = "service.Query"
	spanExecute    = "service.Execute"
	spanRegister   = "service.RegisterDocument"
	spanSubscriber = "xqgo.Subscriber"

	spanParse      = "xqparse.Parse"
	spanOptimize   = "optimizer.Optimize"
	spanPaths      = "optimizer.ExtractPaths"
	spanCompile    = "runtime.Compile"
	spanStreamComp = "streamexec.Compile"
	spanExec       = "Query.Eval"
	spanFirstItem  = "Query.Iterator"
	spanSerialize  = "serializer.Sequence"
	spanScan       = "xmlparse.ParseIncremental/scan"
	spanProjected  = "xmlparse.ParseIncremental/projected"
	spanBuild      = "xmlparse.Parse"
	spanDocStats   = "store.Document.Stats"
	spanIndex      = "structjoin.BuildIndex"
	spanFeed       = "Query.Execute/stream"
)

// compiled is what the replay keeps per distinct query text.
type compiled struct {
	q       *xqgo.Query
	paths   *projection.Paths
	classed bool
	class   xqgo.StreamClass
}

// replayer runs operations in-process on one goroutine, recording a span
// around every call into a layer when rec is not nil.
type replayer struct {
	rec      *recorder
	svc      *service.Service
	plans    map[string]*compiled
	out      bytes.Buffer
	done     int
	failed   int
	firstErr error
}

func newReplayer(svc *service.Service, rec *recorder) *replayer {
	return &replayer{rec: rec, svc: svc, plans: map[string]*compiled{}}
}

func (rp *replayer) fail(o *op, err error) {
	rp.failed++
	if rp.firstErr == nil {
		rp.firstErr = fmt.Errorf("replay of %s %.60q: %w", o.kind, o.query, err)
	}
}

// run replays one operation.
func (rp *replayer) run(o *op, id int) {
	if rp.rec != nil {
		rp.rec.op = int32(id)
	}
	rp.rec.begin(spanOp)
	var err error
	switch o.kind {
	case opQuery, opQueryStream:
		err = rp.catalogQuery(o)
	case opBodyQuery:
		err = rp.bodyQuery(o)
	case opSubscribe:
		err = rp.subscribe(o)
	case opPut:
		err = rp.put(o)
	}
	rp.rec.end()
	rp.done++
	if err != nil {
		rp.fail(o, err)
	}
}

// plan returns the compiled form of a query text. The first time a text is
// seen, the four compile layers are called one by one under their own spans.
func (rp *replayer) plan(text string) (*compiled, error) {
	if c, ok := rp.plans[text]; ok {
		return c, nil
	}
	rp.rec.begin(spanParse)
	ast, err := xqparse.Parse(text)
	rp.rec.end()
	if err != nil {
		return nil, err
	}
	tr := optimizer.NewTrace()
	rp.rec.begin(spanOptimize)
	ast = optimizer.Optimize(ast, optimizer.Options{Trace: tr})
	rp.rec.end()
	for _, n := range tr.Fires() {
		rp.rec.count("optimizer.rule_fires", int64(n))
	}
	rp.rec.begin(spanPaths)
	paths := optimizer.ExtractPaths(ast)
	rp.rec.end()
	rp.rec.begin(spanCompile)
	_, err = runtime.Compile(ast, runtime.Options{Strategy: xqgo.StrategyAuto, Projection: paths})
	rp.rec.end()
	if err != nil {
		return nil, err
	}
	// The executable plan comes from the public constructor; the spans above
	// are the same work seen layer by layer.
	q, err := xqgo.Compile(text, nil)
	if err != nil {
		return nil, err
	}
	c := &compiled{q: q, paths: paths}
	rp.plans[text] = c
	return c, nil
}

func (rp *replayer) engineCounts(c xqgo.EngineCounters) {
	rp.rec.count("runtime.nodes_materialized", c.NodesMaterialized)
	rp.rec.count("runtime.plan_navigation", c.PlanNavigation)
	rp.rec.count("runtime.plan_binary", c.PlanBinaryJoin)
	rp.rec.count("runtime.plan_twig", c.PlanTwigJoin)
}

// evalAndSerialize runs the execute and serialize layers apart: the plan is
// evaluated to a materialised sequence, which is then written out.
func (rp *replayer) evalAndSerialize(c *compiled, ctx func() *xqgo.Context) error {
	prof := c.q.NewCountersProfile()
	rp.rec.begin(spanExec)
	seq, err := c.q.Eval(ctx().WithProfile(prof))
	rp.rec.end()
	if err != nil {
		return err
	}
	rp.engineCounts(prof.Report().Counters)
	rp.rec.count("runtime.items", int64(len(seq)))
	cw := &countWriter{}
	rp.rec.begin(spanSerialize)
	err = serializer.New(cw, serializer.Options{OmitXMLDecl: true}).Sequence(seq)
	rp.rec.end()
	rp.rec.count("serializer.bytes", cw.n)
	return err
}

func (rp *replayer) catalogQuery(o *op) error {
	text := o.text()
	c, err := rp.plan(text)
	if err != nil {
		return err
	}
	req := service.Request{Query: text, ContextDoc: o.doc}
	if o.kind == opQueryStream {
		rp.out.Reset()
		rp.rec.begin(spanExecute)
		_, _, err = rp.svc.Execute(context.Background(), req, &rp.out)
		rp.rec.end()
		if err == nil {
			err = o.match(rp.out.String())
		}
	} else {
		rp.rec.begin(spanQuery)
		var res service.Result
		res, err = rp.svc.Query(context.Background(), req)
		rp.rec.end()
		if err == nil {
			err = o.match(res.XML)
		}
	}
	if err != nil {
		return err
	}
	entry, ok := rp.svc.Catalog.Get(o.doc)
	if !ok {
		return fmt.Errorf("document %q is not registered", o.doc)
	}
	ctx := func() *xqgo.Context {
		return xqgo.NewContext().WithContextNode(entry.Doc).SeedIndex(entry.Doc, entry.Index())
	}
	if err := rp.evalAndSerialize(c, ctx); err != nil {
		return err
	}
	rp.rec.begin(spanFirstItem)
	it, err := c.q.Iterator(ctx())
	if err == nil {
		_, _, err = it.Next()
		it.Close()
	}
	rp.rec.end()
	return err
}

// scan tokenizes src and builds nothing: a projection that keeps no path and
// a Tap that looks at no token.
func scan(src []byte) error {
	p := xmlparse.ParseIncremental(bytes.NewReader(src), xmlparse.Options{
		Projection: projection.New(),
		Tap:        func(xml.Token) error { return nil },
	})
	return p.Document().Complete()
}

// ingestCounts receives the parser's counters for one parse.
type ingestCounts struct{ tokens, built, skipped, bytes int64 }

func (c *ingestCounts) OnParse(tokens, built, skipped, bytes int64) {
	c.tokens += tokens
	c.built += built
	c.skipped += skipped
	c.bytes += bytes
}

func (rp *replayer) scanSpan(src []byte) error {
	rp.rec.begin(spanScan)
	err := scan(src)
	rp.rec.end()
	rp.rec.count("xmlparse.scan_bytes", int64(len(src)))
	return err
}

// classify compiles a plan's streaming form the first time it is needed.
func (rp *replayer) classify(c *compiled) {
	if c.classed {
		return
	}
	rp.rec.begin(spanStreamComp)
	c.class, _ = c.q.Streamability()
	rp.rec.end()
	c.classed = true
}

func (rp *replayer) bodyQuery(o *op) error {
	c, err := rp.plan(o.query)
	if err != nil {
		return err
	}
	rp.classify(c)
	rp.out.Reset()
	rp.rec.begin(spanExecute)
	_, _, err = rp.svc.Execute(context.Background(),
		service.Request{Query: o.query, Body: bytes.NewReader(o.body), StreamMode: true}, &rp.out)
	rp.rec.end()
	if err == nil {
		err = o.match(rp.out.String())
	}
	if err != nil {
		return err
	}
	if err := rp.scanSpan(o.body); err != nil {
		return err
	}
	rp.rec.count("streamexec.executions", 1)
	if c.class == xqgo.StreamStoreRequired {
		// The fall-back: the body becomes a store under the query's
		// projection, and the ordinary engine runs over it.
		rp.rec.count("streamexec.fallbacks", 1)
		var ic ingestCounts
		rp.rec.begin(spanProjected)
		doc, err := xmlparse.Parse(bytes.NewReader(o.body), xmlparse.Options{Projection: c.paths, Stats: &ic})
		rp.rec.end()
		if err != nil {
			return err
		}
		rp.rec.count("xmlparse.projected_bytes", int64(len(o.body)))
		rp.rec.count("xmlparse.nodes_built", ic.built)
		rp.rec.count("xmlparse.nodes_skipped", ic.skipped)
		d := xqgo.FromStore(doc)
		return rp.evalAndSerialize(c, func() *xqgo.Context { return xqgo.NewContext().WithContextNode(d) })
	}
	prof := c.q.NewCountersProfile()
	ctx := xqgo.NewContext().WithStreamingInput(bytes.NewReader(o.body), service.StreamBodyURI).
		WithStreamMode(true).WithProfile(prof)
	rp.rec.begin(spanFeed)
	err = c.q.Execute(ctx, io.Discard)
	rp.rec.end()
	rp.streamCounts(prof.Report().Counters, len(o.body))
	return err
}

func (rp *replayer) streamCounts(c xqgo.EngineCounters, bytes int) {
	rp.rec.count("streamexec.feed_bytes", int64(bytes))
	rp.rec.count("streamexec.windows", c.StreamWindows)
	rp.rec.count("xmlparse.tokens", c.XMLTokens)
	rp.rec.count("xmlparse.token_bytes", int64(bytes))
	rp.rec.peak("streamexec.peak_buffer", c.StreamBufferPeakBytes)
}

func (rp *replayer) subscribe(o *op) error {
	plans := make([]*compiled, len(o.queries))
	for i, text := range o.queries {
		c, err := rp.plan(text)
		if err != nil {
			return err
		}
		rp.classify(c)
		plans[i] = c
	}
	prof := plans[0].q.NewCountersProfile()
	sub := xqgo.NewSubscriber().WithProfile(prof)
	got := make([][]string, len(plans))
	for i, c := range plans {
		sub.Subscribe(c.q, func(item []byte) error {
			got[i] = append(got[i], string(item))
			return nil
		})
		rp.rec.count("streamexec.executions", 1)
		if c.class == xqgo.StreamStoreRequired {
			rp.rec.count("streamexec.fallbacks", 1)
		}
	}
	rp.rec.begin(spanSubscriber)
	err := sub.Run(context.Background(), bytes.NewReader(o.body), service.StreamBodyURI)
	rp.rec.end()
	if err != nil {
		return err
	}
	rp.streamCounts(prof.Report().Counters, len(o.body))
	if o.want.ready {
		for i, want := range o.want.items {
			if len(got[i]) != len(want) {
				return fmt.Errorf("subscription %d delivered %d items, expected %d", i, len(got[i]), len(want))
			}
			for k := range want {
				if got[i][k] != want[k] {
					return fmt.Errorf("subscription %d item %d: got %.80q", i, k, got[i][k])
				}
			}
		}
	}
	return rp.scanSpan(o.body)
}

func (rp *replayer) put(o *op) error {
	rp.rec.begin(spanRegister)
	info, err := rp.svc.RegisterDocument(o.doc, bytes.NewReader(o.body))
	rp.rec.end()
	if err != nil {
		return err
	}
	if info.Bytes != int64(len(o.body)) {
		return fmt.Errorf("document registered with %d bytes, sent %d", info.Bytes, len(o.body))
	}
	rp.rec.begin(spanBuild)
	doc, err := xmlparse.Parse(bytes.NewReader(o.body), xmlparse.Options{URI: o.doc})
	rp.rec.end()
	if err != nil {
		return err
	}
	rp.rec.count("xmlparse.build_bytes", int64(len(o.body)))
	rp.rec.begin(spanDocStats)
	doc.Stats()
	rp.rec.end()
	rp.rec.begin(spanIndex)
	structjoin.BuildIndex(doc)
	rp.rec.end()
	return nil
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
