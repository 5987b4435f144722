package xqgo_test

// The differential oracle. Every way the engine can evaluate a query must
// answer as the reference does: the unoptimized plan, without projection,
// over the stored document, evaluated lazily through Execute. A leg varies
// one axis from the default plan — the optimizer (all rules, and each rule
// off in turn), the join strategy, morsel workers, the input (stored,
// streamed with and without projection, stream mode), a memory budget, the
// way results are pulled, xqd over HTTP, the eager engine — and compare
// holds it to the reference's bytes, or to its error code. Two legs have
// latitude on generated trials, each by a named rule. The inputs are the
// corpus at the end of this file and the trials internal/qgen generates.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"xqgo"
	"xqgo/internal/expr"
	"xqgo/internal/functions"
	"xqgo/internal/optimizer"
	"xqgo/internal/qgen"
	"xqgo/internal/runtime"
	"xqgo/internal/serializer"
	"xqgo/internal/service"
	"xqgo/internal/workload"
	"xqgo/internal/xdm"
	"xqgo/internal/xqparse"
)

// outcome is what an evaluation shows: its bytes, or its error's code.
type outcome struct{ out, code string }

func (o outcome) String() string {
	if o.code != "" {
		return "error " + o.code
	}
	return fmt.Sprintf("%.300q", o.out)
}

// codeOf is the one reading of an error: its XQuery code (errors.As), or
// its text when it has none.
func codeOf(err error) string {
	if c := xdm.CodeOf(err); c != "" || err == nil {
		return c
	}
	return err.Error()
}

// compare is the one verdict: got must be want, unless a rule, a named
// latitude of the leg, lets them differ. catches says whether the query
// has a try/catch.
func compare(t testing.TB, what string, want, got outcome, lat rule, catches bool) {
	t.Helper()
	if got != want && (lat == nil || !lat(want, got, catches)) {
		t.Errorf("%s:\n got  %s\n want %s", what, got, want)
	}
}

// A rule lets a leg's outcome differ from the reference's. Rules apply to
// generated trials only: corpus rows are compared exactly.
type rule func(want, got outcome, catches bool) bool

// skippedError is the latitude of morsel workers, by Context.WithWorkers:
// "errors may surface from bindings a fully lazy evaluation would have
// skipped". Where the reference succeeds, the leg may raise a dynamic
// error; where both fail, the codes match.
func skippedError(want, got outcome, _ bool) bool { return want.code == "" && dynamicError(got.code) }

// eagerError is the latitude of the eager engine, by XQuery 1.0 §2.3.4: it
// evaluates every operand before the operand's consumer, so it may raise a
// dynamic error the lazy reference skips. It may do so where the reference
// succeeds, and also where the reference fails later, on another operand or
// in the consumer (a constructor's duplicate attribute); and on a query
// with a try/catch, the error it catches may give other bytes.
func eagerError(want, got outcome, catches bool) bool {
	return dynamicError(got.code) && (want.code == "" || dynamicError(want.code)) ||
		catches && want.code == "" && got.code == ""
}

// catches reports whether the query q has a try/catch.
func catches(q string) (found bool) {
	visit := func(e expr.Expr) bool {
		_, try := e.(*expr.TryCatch)
		found = found || try
		return !found
	}
	if m, err := xqparse.Parse(q); err == nil {
		expr.Walk(m.Body, visit)
		for _, v := range m.Vars {
			expr.Walk(v.Init, visit)
		}
		for _, f := range m.Funcs {
			expr.Walk(f.Body, visit)
		}
	}
	return found
}

// dynamicError reports whether code is one evaluation raises: a dynamic or
// type error of XQuery or F&O. A static error, an engine error (XQGO) and
// an error without a code are not.
func dynamicError(code string) bool {
	for _, p := range []string{"FO", "XPDY", "XQDY", "XPTY", "XQTY"} {
		if strings.HasPrefix(code, p) {
			return true
		}
	}
	return false
}

// corpusDoc is a document, built on first use: text for the streamed legs,
// parsed for the stored ones.
type corpusDoc struct {
	uri   string
	text  func() string
	once  sync.Once
	xml   string
	store *xqgo.Document
}

func (d *corpusDoc) load() *corpusDoc {
	d.once.Do(func() { d.xml = d.text(); d.store = xqgo.MustParseString(d.xml, d.uri) })
	return d
}

func docOf(uri string, text func() string) *corpusDoc { return &corpusDoc{uri: uri, text: text} }

func fixedDoc(uri, xml string) *corpusDoc { return docOf(uri, func() string { return xml }) }

// row is a query on a document, with what its legs check besides the
// verdict.
type row struct {
	q     string
	doc   *corpusDoc
	fails string // the reference fails with this code
	class string // stream mode: the plan's class; windows and no fallback, or one fallback when store-required; the reference succeeds
	peak  bool   // stream mode: the window buffer peaks above 0 and at most 1% of the document
	skips bool   // streamed with projection: some node is skipped
}

// rows are the queries qs, each with what r sets.
func rows(r row, qs ...string) []row {
	rs := make([]row, len(qs))
	for i, q := range qs {
		rs[i], rs[i].q = r, q
	}
	return rs
}

// axis is a set of legs.
type axis uint

const (
	axOptimizer axis = 1 << iota
	axStrategy
	axWorkers
	axInput
	axBudget
	axPull
	axHTTP
	axEager
	axAll = 1<<iota - 1
)

type input int

const (
	stored input = iota
	streamed
	streamMode
)

// via is how a leg pulls the results: through Execute (the zero value),
// EvalString, item by item through Iterator, from xqd, or from the eager
// engine.
type via int

const (
	execute via = iota
	evalString
	iterate
	overHTTP
	eager
)

// leg is one way to evaluate a row: the base plan changed by opts, on an
// input, with a context change, pulled via one path. Axis 0 always runs.
type leg struct {
	axis axis
	name string
	lat  rule // on generated trials, the leg's latitude
	opts func(*xqgo.Options)
	in   input
	with func(*xqgo.Context)
	via  via
}

func strategy(s xqgo.Strategy) func(*xqgo.Options) { return func(o *xqgo.Options) { o.Strategy = s } }

var legs = append([]leg{
	{name: "default plan"},
	{axis: axStrategy, name: "navigation", opts: strategy(xqgo.ForceNavigation)},
	{axis: axStrategy, name: "twig", opts: strategy(xqgo.ForceTwig)},
	{axis: axStrategy, name: "auto", opts: strategy(xqgo.StrategyAuto)},
	{axis: axWorkers, name: "workers=8", lat: skippedError, with: func(c *xqgo.Context) { c.WithWorkers(8).WithWorkerLimiter(grantAll{}) }},
	{axis: axBudget, name: "budget", with: func(c *xqgo.Context) { c.WithMemoryBudget(64 << 20) }},
	{axis: axInput, name: "streamed", in: streamed},
	{axis: axInput, name: "streamed without projection", in: streamed, opts: func(o *xqgo.Options) { o.DisableProjection = true }},
	{axis: axInput, name: "stream mode", in: streamMode},
	{axis: axPull, name: "EvalString", via: evalString},
	{axis: axPull, name: "Iterator", via: iterate},
	{axis: axHTTP, name: "xqd", via: overHTTP},
	{axis: axEager, name: "eager engine", lat: eagerError, via: eager},
}, func() (ls []leg) {
	for _, r := range optimizer.AllRules {
		ls = append(ls, leg{axis: axOptimizer, name: "without " + r, opts: func(o *xqgo.Options) { o.DisableRules = []string{r} }})
	}
	return ls
}()...)

// reference is the unoptimized plan, without projection, on the stored
// document, evaluated lazily through Execute.
var reference = leg{name: "reference", opts: func(o *xqgo.Options) { *o = xqgo.Options{NoOptimize: true, DisableProjection: true} }}

// grantAll always grants the full worker request, so workers legs run real
// parallel rounds whatever the host's CPU count.
type grantAll struct{}

func (grantAll) TryLease(n int) int { return n }
func (grantAll) Release(int)        {}

// trial is one row under one base plan.
type trial struct {
	t         testing.TB
	row       row
	base      xqgo.Options
	ctx       context.Context
	server    string   // xqd's URL, for the HTTP leg
	want      *outcome // the reference's outcome, when a run under another base computed it
	generated bool     // a generated row: the latitude of the legs applies
	fuzz      bool     // a resource limit ends the trial without a verdict
	limited   bool
}

// context is a fresh evaluation context on the row's document.
func (tr *trial) context(in input) *xqgo.Context {
	d := tr.row.doc.load()
	c := xqgo.NewContext().WithNow(time.Date(2004, 3, 30, 12, 0, 0, 0, time.UTC)).WithInterrupt(tr.ctx.Err)
	if tr.fuzz {
		c.WithMemoryBudget(64 << 20)
	}
	if in == stored {
		return c.WithContextNode(d.store).RegisterDocument(d.uri, d.store).Bind("d", d.store)
	}
	return c.WithStreamingInput(strings.NewReader(d.xml), d.uri).WithStreamMode(in == streamMode)
}

// run evaluates the row by leg l. EvalString's bytes must re-parse to the
// result.
func (tr *trial) run(l leg) outcome {
	if l.via == overHTTP {
		return tr.overHTTP()
	}
	o := tr.base
	if l.opts != nil {
		l.opts(&o)
	}
	var q *xqgo.Query
	var err error
	if l.via == eager {
		q, err = xqgo.CompileReference(tr.row.q, runtime.Options{Eager: true})
	} else {
		q, err = xqgo.Compile(tr.row.q, &o)
	}
	if err != nil {
		return tr.result("", err)
	}
	prof := q.NewCountersProfile()
	c := tr.context(l.in).WithProfile(prof)
	if l.with != nil {
		l.with(c)
	}
	var out string
	switch l.via {
	case evalString:
		if out, err = q.EvalString(c); err == nil {
			if seq, err := q.Eval(tr.context(stored)); err == nil {
				checkReparses(tr.t, seq, out)
			}
		}
	case iterate:
		var items xqgo.Sequence
		for it, err := range q.Items(c) {
			if err != nil {
				return tr.result("", err)
			}
			items = append(items, it)
		}
		out, err = serializer.SequenceToString(items)
	default:
		var b strings.Builder
		err = q.Execute(c, &b)
		out = b.String()
	}
	tr.checkCounters(l, q, o, prof.Report().Counters, err)
	return tr.result(out, err)
}

// checkCounters checks what the row expects of an input leg's counters.
func (tr *trial) checkCounters(l leg, q *xqgo.Query, o xqgo.Options, c xqgo.EngineCounters, err error) {
	r := tr.row
	switch {
	case err != nil || l.in == stored:
	case o.DisableProjection && c.NodesSkipped != 0:
		tr.t.Errorf("%s: projection-off run skipped %d nodes", r.q, c.NodesSkipped)
	case l.in == streamed && r.skips && c.NodesSkipped == 0 && !o.DisableProjection:
		tr.t.Errorf("%s: projection skipped no nodes", r.q)
	case l.in == streamMode && r.class != "":
		class, reason := q.Streamability()
		switch {
		case class.String() != r.class:
			tr.t.Errorf("%s: class %v (%s), want %s", r.q, class, reason, r.class)
		case !class.Streamable() && c.StreamFallbacks != 1:
			tr.t.Errorf("%s: fallbacks = %d, want 1", r.q, c.StreamFallbacks)
		case class.Streamable() && (c.StreamWindows == 0 || c.StreamFallbacks != 0):
			tr.t.Errorf("%s: %d windows, %d fallbacks; want windows and no fallback", r.q, c.StreamWindows, c.StreamFallbacks)
		case r.peak && (c.StreamBufferPeakBytes <= 0 || c.StreamBufferPeakBytes > int64(len(r.doc.xml)/100)):
			tr.t.Errorf("%s: peak window buffer %d B, want > 0 and <= 1%% of the %d B document", r.q, c.StreamBufferPeakBytes, len(r.doc.xml))
		}
	}
}

// overHTTP asks xqd, through the non-streamed JSON form of POST /query.
func (tr *trial) overHTTP() outcome {
	r, body := postJSON(tr.t, tr.server+"/query", map[string]any{"query": tr.row.q, "doc": tr.row.doc.uri})
	var qr queryResp
	if err := json.Unmarshal(body, &qr); err != nil {
		tr.t.Fatalf("%s: %v: %s", tr.row.q, err, body)
	}
	switch {
	case r.StatusCode == http.StatusOK:
		return outcome{out: qr.Result}
	case qr.Code != "":
		return outcome{code: qr.Code}
	}
	return outcome{code: qr.Error}
}

// result is an evaluation's outcome; it notes a resource limit.
func (tr *trial) result(out string, err error) outcome {
	var budget *xqgo.BudgetExceededError
	if errors.As(err, &budget) || tr.ctx.Err() != nil {
		tr.limited = true
	}
	if err != nil {
		return outcome{code: codeOf(err)}
	}
	return outcome{out: out}
}

// check runs the reference and every leg of axes, compares, and returns
// the reference's outcome. A fuzzed trial has two seconds.
func (tr *trial) check(axes axis) outcome {
	tr.t.Helper()
	tr.ctx = context.Background()
	if tr.fuzz {
		ctx, cancel := context.WithTimeout(tr.ctx, 2*time.Second)
		defer cancel()
		tr.ctx = ctx
	}
	r, try := tr.row, false
	if tr.want == nil {
		want := tr.run(reference)
		tr.want = &want
	}
	want := *tr.want
	if (r.fails != "" || r.class != "") && want.code != r.fails {
		tr.t.Errorf("%q on %s: the reference gives %s, want the error code %q (none: success)", r.q, r.doc.uri, want, r.fails)
	}
	if tr.generated {
		try = catches(r.q)
	}
	for _, l := range legs {
		if l.axis != 0 && axes&l.axis == 0 {
			continue
		}
		got := tr.run(l)
		if tr.fuzz && tr.limited {
			tr.t.Skip("resource limit")
		}
		if !tr.generated {
			l.lat = nil
		}
		compare(tr.t, fmt.Sprintf("%q on %s, %s", r.q, r.doc.uri, l.name), want, got, l.lat, try)
	}
	return want
}

// oracle checks rows under the base options on the legs of axes, and
// returns their reference outcomes. refs, when given, are those of an
// earlier run: no base option changes the reference.
func oracle(t *testing.T, rs []row, base xqgo.Options, axes axis, refs ...outcome) []outcome {
	t.Helper()
	var svc *service.Service
	var server string
	if axes&axHTTP != 0 {
		svc = service.New(service.Config{Workers: 2, Options: base})
		server = startServer(t, svc)
	}
	wants := make([]outcome, len(rs))
	for i, r := range rs {
		if svc != nil {
			register(t, svc, r.doc)
		}
		tr := &trial{t: t, row: r, base: base, server: server}
		if len(refs) == len(rs) {
			tr.want = &refs[i]
		}
		wants[i] = tr.check(axes)
	}
	return wants
}

// register puts d in xqd's catalog.
func register(t testing.TB, svc *service.Service, d *corpusDoc) {
	if _, err := svc.Catalog.Register(d.uri, strings.NewReader(d.load().xml), xqgo.ParseOptions{}); err != nil {
		t.Fatal(err)
	}
}

// eachBase runs oracle under the default options, forced navigation and
// the forced twig join, each a subtest, running the reference once.
func eachBase(t *testing.T, rs []row, axes axis) {
	var refs []outcome
	for _, b := range []struct {
		name string
		opts xqgo.Options
	}{
		{"default", xqgo.Options{}},
		{"navigation", xqgo.Options{Strategy: xqgo.ForceNavigation}},
		{"twig", xqgo.Options{Strategy: xqgo.ForceTwig}},
	} {
		t.Run(b.name, func(t *testing.T) { refs = oracle(t, rs, b.opts, axes, refs...) })
	}
}

// generatedTrials is how many qgen cases TestDifferentialRandomQueries runs
// through every leg.
const generatedTrials = 1000

func generated(seed int64, src string) row {
	c := qgen.New(seed)
	if src == "" {
		src = c.Query
	}
	return row{q: src, doc: fixedDoc("qgen.xml", c.Doc)}
}

// TestDifferentialRandomQueries: generated queries on generated documents,
// through every leg.
func TestDifferentialRandomQueries(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	server := startServer(t, svc)
	for i := int64(0); i < generatedTrials; i++ {
		r := generated(i, "")
		register(t, svc, r.doc)
		// A static error would leave every leg nothing to disagree on.
		if want := (&trial{t: t, row: r, server: server, generated: true}).check(axAll); strings.HasPrefix(want.code, "XPST") {
			t.Errorf("the generated query does not compile: %s", want.code)
		}
		if t.Failed() {
			t.Fatalf("trial %d failed:\n%s\non\n%s", i, r.q, r.doc.xml)
		}
	}
}

// FuzzDemand: a query text, or the generated query when the text is empty,
// on the generated document of a seed, through every leg but the eager
// engine and xqd. A resource limit (a deadline, a memory budget) ends a run
// without a verdict.
func FuzzDemand(f *testing.F) {
	seeds, err := os.ReadFile("internal/xqparse/testdata/seed_queries.txt")
	if err != nil {
		f.Fatal(err)
	}
	for i, q := range strings.Split(strings.TrimSpace(string(seeds)), "\n") {
		f.Add(int64(i), q)
	}
	for i := int64(0); i < 16; i++ {
		f.Add(generatedTrials+i, "")
	}
	f.Fuzz(func(t *testing.T, seed int64, src string) {
		if len(src) > 4096 {
			t.Skip("oversized query")
		}
		(&trial{t: t, row: generated(seed, src), generated: true, fuzz: true}).check(axAll &^ (axEager | axHTTP))
	})
}

// reparseEqual compares a result with its own serialization parsed back:
// element content takes a sequence by the same rules serialization does
// (nodes copied, adjacent atomics joined by a space), and fn:deep-equal
// compares expanded names, attribute values and text.
var reparseEqual = xqgo.MustCompile(`declare variable $result external; declare variable $reparsed external;
	deep-equal(<wrap>{$result}</wrap>, $reparsed/*)`, nil)

func checkReparses(t testing.TB, result xqgo.Sequence, out string) {
	t.Helper()
	reparsed, err := xqgo.ParseString("<wrap>"+out+"</wrap>", "out.xml")
	if err != nil {
		t.Errorf("output is not well-formed: %v\n  %s", err, out)
		return
	}
	same, err := reparseEqual.EvalString(xqgo.NewContext().Bind("result", result).Bind("reparsed", reparsed))
	if err != nil || same != "true" {
		t.Errorf("output does not re-parse to the result (deep-equal = %q, %v):\n  %s", same, err, out)
	}
}

// ---- the corpus ----

var (
	nsDoc         = fixedDoc("ns.xml", paperNS)
	paperDoc      = fixedDoc("bib.xml", paperBib)
	demandDoc     = fixedDoc("demand.xml", demandXML)
	deepDoc       = docOf("deep.xml", func() string { return workload.DocToXML(workload.Deep(workload.DeepConfig{Nodes: 60000, Seed: 2})) })
	deepSmallDoc  = docOf("deep-small.xml", func() string { return workload.DocToXML(workload.Deep(workload.DeepConfig{Nodes: 3000, Seed: 9})) })
	ordersFeedDoc = docOf("mem:feed", func() string {
		return workload.DocToXML(workload.Orders(workload.OrdersConfig{Lines: 300, Sellers: 4, Seed: 11}))
	})
	bigFeedDoc = docOf("mem:big-feed", func() string { return ordersXML(5000) })
	bibDoc     = docOf("stream.xml", func() string { return workload.DocToXML(workload.Bib(workload.BibConfig{Books: 120, Seed: 12})) })
	nsFeedDoc  = fixedDoc("mem:ns-feed", paperNS)
)

// paperRows are the paper's queries (paperqueries_test.go), cases aimed at
// the draining operators (deep paths, filters, FLWOR pipelines, ranges, set
// ops, grouping, order-by), error propagation after items were delivered,
// comma sequences of the shape morsel workers split, and namespaces.
var paperRows = append(rows(row{doc: paperDoc},
	// paperqueries_test.go suite.
	`for $x in document("bib.xml")/bib/book return $x/title`,
	`let $x := document("bib.xml")/bib/book return count($x)`,
	`for $x in //bib/book
	 let $y := $x/author
	 where $x/title = "Ulysses"
	 return count($y)`,
	`for $x in //bib/book
	 return (let $y := $x/author
	         return if ($x/title = "Ulysses") then count($y) else ())`,
	`for $b in document("bib.xml")//book
	 where $b/publisher = "Springer Verlag" and $b/@year = "1998"
	 return $b/title`,
	`count(//book[author/firstname = "ronald"])`,
	`count(//book[@price < 25])`,
	`count(//book[count(author[@gender="female"]) > 0])`,
	`count(/bib/book/author[1])`,
	`count((/bib/book/author)[1])`,
	`<a>42</a> eq "42"`,
	`<a>42</a> = 42`,
	`<a>42</a> = 42.0`,
	`<a>42</a> eq <b>42</b>`,
	`() = 42`,
	`(<a>42</a>, <b>43</b>) = 42`,
	`(1,2) = (2,3)`,
	`count(() eq 42)`,
	`let $x := <a/> return count(distinct-nodes(($x, $x)))`,
	`count(distinct-nodes((<a/>, <a/>)))`,
	`declare namespace ns = "uri1";
	 <b xmlns:ns="uri2">{ namespace-uri-from-QName(node-name(<ns:a/>)) }</b>`,
	`count(/bib/book/title/..)`,
	`count(/bib/book[title])`,
	`for $book in /bib/book
	 return if ($book/@year < 1980)
	        then <old>{$book/title/text()}</old>
	        else <new>{$book/title/text()}</new>`,
	`let $ttl := <x ttl="33000"/>
	 return <binding>{
	   if (empty($ttl/@ttl)) then ()
	   else attribute persist-duration { concat(($ttl/@ttl div 1000), " seconds") }
	 }</binding>`,
	`empty(())`,
	`index-of((10, 20, 30), 20)`,
	`distinct-values((1, 1, 2))`,
	`string-length("politics")`,
	`contains("experience", "peri")`,
	`string(date("2002-05-20"))`,
	`string(add-date(date("2002-05-20"), xdt:dayTimeDuration("P2D")))`,
	`let $x := <x/> let $y := <y/> let $z := <z/>
	 return for $n in (($x, $y) union ($y, $z)) return local-name($n)`,

	// Draining-operator edges: ranges, deep pipelines, grouping, order-by.
	`count(1 to 1000)`,
	`sum(1 to 300)`,
	`(1 to 400)[. mod 7 = 0]`,
	`count(for $i in 1 to 200 for $j in 1 to 3 where ($i + $j) mod 5 = 0 return $i * $j)`,
	`for $b in /bib/book order by string($b/title) return string($b/@year)`,
	`for $b in /bib/book order by number($b/price) descending return string($b/price)`,
	`for $a in //author group by $g := count($a/*) return $g`,
	`string-join(for $i in 1 to 150 return string($i mod 10), "")`,
	`count(//*)`,
	`count(//author/ancestor::book)`,
	`(for $x in 1 to 100 return $x * $x)[71]`,
	`some $x in 1 to 1000000000 satisfies $x = 3`,
	`every $x in 1 to 50 satisfies $x > 0`,
	`subsequence(1 to 100000, 5, 3)`,
	`let $s := (1 to 260) return (count($s), sum($s), $s[259])`,

	// Error propagation after delivered items: items before the error
	// must not change which error code surfaces.
	`(1, 2, 1 idiv 0)`,
	`(1, 1 idiv 0, 3)[1]`,
	`for $x in (1, 2, 0, 4) return 10 idiv $x`,
	`sum(for $x in 1 to 300 return if ($x = 299) then "boom" else $x)`,
	`count(for $x in 1 to 300 return 1 idiv (300 - $x))`,
	`/bib/book[1 idiv 0]`,
	`string(xs:yearMonthDuration("P1D"))`,
	`codepoints-to-string((65, 66, 0))`,
	`let $dead := 1 idiv 0 return "alive"`,
	`try { for $x in 1 to 300 return 1 idiv (150 - $x) } catch * { "caught" }`,
	// Found by the generated trials: a morsel FLWOR forced the outer $x
	// before its input raised XPDY0002.
	`declare function local:f($x) { for $v in /bib/book where $x return $v }; local:f(1 idiv 0)`,

	// Comma sequences with heavy, context-free branches — the shape morsel
	// workers evaluate one branch per chunk: branches sharing a let binding,
	// a failing branch in the middle, and one-item consumers that must not
	// reach the failing branch.
	`let $b := document("bib.xml")//book return
	   (count($b[@price < 25]/author/firstname) + count($b/title) + count($b/@year),
	    string-join(for $t in $b/title return concat(string($t), "!"), "|"),
	    sum(for $a in $b/author return string-length(string($a/lastname))) + count($b/publisher))`,
	`let $b := document("bib.xml")//book return
	   (count($b[@price < 25]/author/firstname) + count($b/title) + count($b/@year),
	    sum(for $a in $b/author return 1 idiv (count($a/firstname) - count($a/firstname))),
	    string-join(for $t in $b/title return concat(string($t), "!"), "|"))`,
	`let $b := document("bib.xml")//book return
	   exists((count($b/author/firstname) + count($b/title) + count($b/@year) + count($b/publisher),
	           sum(for $a in $b/author return 1 idiv (count($a/firstname) - count($a/firstname)))))`,
	`let $b := document("bib.xml")//book return
	   (count($b/author/firstname) + count($b/title) + count($b/@year) + count($b/publisher),
	    sum(for $a in $b/author return 1 idiv (count($a/firstname) - count($a/firstname))))[1]`,
), rows(row{doc: nsDoc},
	// Namespaces, over ns.xml: the inputs on which the stored-subtree scan
	// and the id-free constructor once serialized differently. A namespaced
	// attribute under an undeclared element prefix; a prolog prefix nothing
	// declares in the output; the same on a computed attribute; an inherited
	// default namespace; newline and tab in an attribute value; xml:lang; a
	// constructor's unused declaration around a copied tree; a top-level
	// attribute (err:SENR0001 either way); an attribute after content
	// (err:XQTY0024); a duplicate attribute (err:XQDY0025).
	`document("ns.xml")/*/*[1]`,
	`declare namespace p="urn:p"; <p:w>{1,2}</p:w>`,
	`declare namespace p="urn:p"; <r>{attribute p:x {1}}</r>`,
	`document("ns.xml")/*/*[2]`,
	`document("ns.xml")/*/*[2]/*`,
	`string(document("ns.xml")/*/*[3]/@x)`,
	`document("ns.xml")/*/*[3]`,
	`<w xmlns:z="urn:z">{document("ns.xml")/*}</w>`,
	`document("ns.xml")/*/*[3]/@x`,
	`<a xmlns="urn:k"><b>{document("ns.xml")/*/*[3]}</b></a>`,
	`<a>text{attribute x {1}}</a>`,
	`<a x="1">{attribute x {2}}</a>`,
)...)

// deepRows run over a document large enough that the path-scan,
// structural-join and FLWOR morsel loops split into parallel rounds, and
// the join strategies take different code paths. The document is also
// bound to $d: comma branches must not read the focus.
var deepRows = rows(row{doc: deepDoc},
	// Descendant range scans over the pre-order array.
	`count(//a)`,
	`count(//b) + count(//c)`,
	`string-join((//a)[position() <= 20]/local-name(), "")`,
	// Structural-join chains (postings feeds at scale); strategyDeepRows has more.
	`(//a//b)[500]/local-name()`,
	// FLWOR tuple pipelines.
	`sum(for $i in 1 to 20000 return $i mod 7)`,
	`string-join(for $b in //b return local-name($b), "")`,
	`count(for $a in //a where count($a/*) > 2 return $a)`,
	// Error position must not depend on worker count.
	`count(for $i in 1 to 20000 return 1 idiv (20000 - $i))`,
	`sum(for $i in 1 to 20000 return if ($i = 19999) then "boom" else 1)`,
	// Comma branches, one morsel each: the E13 eight-branch sequence,
	// branches sharing a let binding, a failing branch in the middle.
	e13Query,
	`declare variable $d external;
	 let $a := $d//a return
	   (count($a//b) + count($a/c) + count($a/d) + count($a/a),
	    string-join(for $x in $a[position() <= 40] return local-name($x/*[1]), ""),
	    sum(for $x in $a[position() <= 400] return count($x/*)) + count($a/b))`,
	`declare variable $d external;
	 (count($d//a//b//c), sum(for $i in 1 to 20000 return 1 idiv (20000 - $i)), count($d//b//c//d))`,
)

// strategyDeepRows are join-shaped chains on the deep document, where the
// strategies take different code paths.
var strategyDeepRows = rows(row{doc: deepDoc},
	`count(//a//b)`,
	`count(//a//b//c)`,
	`count(//a//b/c)`,
	`count(/root//a//b)`,
	`count(//a//a)`, // self-chain: strict containment must hold everywhere
	`string-join(for $n in //a//b//c return local-name($n), "")`,
	`(//a//b)[17]/local-name(.)`,
	`count(//a//b[1 idiv 0])`, // error identity through every join path
)

// e13Query is experiment E13's comma sequence (cmd/xqbench): eight
// independent three-step chains over one external document.
const e13Query = `declare variable $d external;
	(count($d//a//b//c), count($d//b//c//d), count($d//c//d//a), count($d//d//a//b),
	 count($d//a//c//b), count($d//b//d//a), count($d//c//a//d), count($d//d//b//c))`

// indexedPathRows are join-shaped paths, which the index join answers,
// and paths that are not (predicates, wildcards), which fall back to
// navigation; they serialize whole node sequences, so the document is
// small.
var indexedPathRows = rows(row{doc: deepSmallDoc},
	`//a//b`,
	`//a//b//c`,
	`//a/b`,
	`/root//a`,
	`/root//a/b//c`,
	`count(//a//b)`,
	`for $n in //a//b return local-name($n)`,
	`//a[b]//c`,
	`//*`,
	`//a//b[1]`,
)

const paperQuery = `for $line in /Order/OrderLine
where $line/SellersID eq "1"
return <lineItem>{fn:string($line/Item/ID)}</lineItem>`

// feedQueries are the benchmark's eight subscription queries (five of the
// six streamable ones share the spine /Order/OrderLine, two need the store)
// plus queries on other spines: two over a Bib feed, and one whose windows
// nest inside the OrderLine windows of the same feed.
var feedQueries = []string{
	`/Order/date`,
	paperQuery,
	`/Order/OrderLine[SellersID = "2"]/Item/ID`,
	`/Order/OrderLine[Item/Quantity = "20"]/Note`,
	`for $l in /Order/OrderLine
where $l/SellersID eq "3" and $l/Item/Quantity eq "1"
return <hit>{string($l/Item/ID)}</hit>`,
	`/Order/OrderLine[SellersID = "1"][Item/Quantity = "5"]/Item`,
	`count(/Order/OrderLine)`,
	`sum(/Order/OrderLine/Item/Quantity)`,
	`/bib/book[price > 60]/title`,
	`for $b in /bib/book where $b/@year = "1994" return <t>{string($b/title)}</t>`,
	`/Order/OrderLine/Item[Quantity = "7"]/ID`,
}

// streamRows pin the streamability class of each plan and what stream mode
// records for it: windows, or one fallback to the store engine. A prefixed
// feed checks that forwarded window tokens, nested windows and arena
// windows carry the declarations a scan of the stored subtree sends.
var streamRows = []row{
	{q: `/Order/OrderLine`, doc: ordersFeedDoc, class: "fully-streamable"},
	{q: `/Order/OrderLine/Item/ID`, doc: ordersFeedDoc, class: "fully-streamable"},
	{q: `/Order/OrderLine[SellersID = "1"]`, doc: ordersFeedDoc, class: "bounded-buffers"},
	{q: paperQuery, doc: ordersFeedDoc, class: "bounded-buffers"},
	{q: paperQuery, doc: bigFeedDoc, class: "bounded-buffers", peak: true}, // a window holds one OrderLine however long the feed is
	{q: `count(/Order/OrderLine)`, doc: ordersFeedDoc, class: "store-required"},
	{q: `declare namespace p="urn:p"; /p:a/p:b`, doc: nsFeedDoc, class: "fully-streamable"},
	{q: `declare namespace d="urn:d"; //d:e`, doc: nsFeedDoc, class: "bounded-buffers"},
	{q: `declare namespace p="urn:p"; for $b in /p:a/* return <hit xmlns:z="urn:z">{$b/@*, $b/*}</hit>`,
		doc: nsFeedDoc, class: "bounded-buffers"},
}

// projectionRows are the paper-query shapes over a streamed Bib document;
// the selective ones must skip nodes. An omitted focus argument reads the
// focus: the string value, the name, or the root of the focus's tree.
var projectionRows = append(append(rows(row{doc: bibDoc, skips: true},
	`/bib/book/title`,
	`//title`,
	`count(//author)`,
	`for $b in /bib/book where $b/@year = "1994" return $b/title`,
	`/bib/book[price > 50]/title`,
	`for $b in /bib/book return <r y="{$b/@year}">{$b/title}</r>`,
	`/bib/book/author/last`,
	`doc("stream.xml")/bib/book/publisher`,
	`count(/bib/book[author/last = "Suciu"])`,
	`/bib/book/title/string()`,
	`/bib/book/title/name()`,
	`for $b in /bib/book return $b/title/string()`,
	`/bib/book[1]/title/root()/bib/book[2]/price/string(.)`,
	`/bib/book/price/number()`,
), rows(row{doc: bibDoc},
	`/bib/book/title/..`, // parent axis: keep-all
	`.`,
	`sum(/bib/book/xs:integer(@year))`,
	`string()`,
	`count(/bib/book[string-length() gt 40])`,
)...), row{q: `1 + /bib/book`, doc: bibDoc, fails: "XPTY0004"},
	row{q: `xs:integer(/bib/book[1]/title)`, doc: bibDoc, fails: "FORG0001"})

// demandXML has namespaces (a prefix, a default namespace on a subtree),
// attributes, mixed content, whitespace-only text, a comment, a processing
// instruction, and names that repeat at several depths.
const demandXML = `<bib xmlns:x="urn:x" id="b0">
  <book year="1994" x:lang="en">
    <title>TCP/IP <i>Illustrated</i></title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the <x:em>Web</x:em></title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Suciu</last><first>Dan</first></author>
    <price>39.95</price>
    <x:note>mixed <b>bold</b> tail<!-- c --><?pi data?></x:note>
  </book>
  <book year="1999">
    <title>The Economics of Technology</title>
    <editor><last>Gerbarg</last><affiliation>CITI</affiliation></editor>
    <price>129.95</price>
    <book year="2001"><title>Nested</title><price>1</price></book>
  </book>
  <meta xmlns="urn:m"><title>Shelf</title><a><b>1</b><b>2</b></a></meta>
  <a><b>3</b><a><b>4</b></a></a>
  <title>Catalogue</title>
</bib>`

// demandRows are regressions for what projection keeps of a focus read,
// for CSE of a focus read, and for positional and numeric predicates on a
// stream-mode spine.
var demandRows = rows(row{doc: demandDoc},
	`count(/bib/book/title/string())`,
	`for $x in /bib/* return $x/(concat(string(), "-", local-name(), "-", string()), concat(string(), "-", local-name(), "-", string()))`,
	`/bib/book[position() = 2]/title`,
	`/bib/book[last()]/price`,
	`/bib/book[title/1]`,
	`(/bib/book/title/string()) instance of node()*`,
	`//b/normalize-space()`,
	`for $t in //title return $t/local-name()`,
)

// focusRows call every built-in whose omitted argument is the focus
// without it, on a path and in a FLWOR, over the demand document's mixed
// and namespaced titles: a built-in registered later is covered without
// editing the corpus.
func focusRows() (rs []row) {
	for f := range functions.Each() {
		if f.Props.UsesContext && f.MinArgs == 0 {
			rs = append(rs, rows(row{doc: demandDoc}, `/bib/book/title/`+f.Name+`()`, `for $t in /bib/book/title return $t/`+f.Name+`()`)...)
		}
	}
	return rs
}

// foundRows are disagreements the generated trials found, minimized; each
// comment names what disagreed.
var foundRows = append(rows(row{doc: demandDoc},
	`declare function local:f($x) { /@* }; count(local:f(1))`,                        // fn-inline: a body's focus read saw the caller's focus
	`(() cast as xs:decimal) instance of item()?`,                                    // type-rewrite: folding to true dropped the operand's error
	`- string() instance of item()?`,                                                 // a unary minus can raise
	`(if (for $i in 1 to 5 return false()) then "a" else "") instance of xs:string*`, // so can an effective boolean value
	`<e>{""}</e>`,        // an empty text node is no content
	`<e>{text {""}}</e>`, // in either constructor
	`"a" = "x"`,          // the unoptimized general comparison of two literals
	`<e x="1">{attribute x {1}, concat(1, //*)}</e>`,                   // a duplicate attribute comes before a later content error
	`let $x := <x/> let $y := <y/> return (($x, $y) union ($y, <z/>))`, // let-fold: trees built out of order
	`if (false()) then $nope else 1`,                                   // a static error in code the optimizer drops
	`if (false()) then nosuch() else 1`,                                // likewise
	`for $a in (1, 2) return ((for $b in (3, 4) return concat($b, "-", $b, "-", $b)), (for $b in (3, 4) return concat($b, "-", $b, "-", $b)))`, // CSE moved $b out of its scope
	`<e x="1">{attribute x {1}}</e> instance of element()`,                          // a constructor can raise
	`declare function local:f($x) { exists(/bib) instance of item()? }; local:f(1)`, // so can a focus read
	`//b[xs:integer(.)][1 - 1]`,                                                     // a predicate folded to [0] pulled no input
	`declare function local:f($x) { 1 idiv 0 }; count(/bib/none[local:f(/bib)])`,    // inlined, a predicate reads no focus
	`boolean(//b treat as element()?) castable as xs:integer`,                       // castable swallowed the eager engine's error
	`(1 idiv 0) castable as xs:double`,                                              // and the operand's own
	`for $v in <e>{attribute y { () cast as xs:integer }}</e> return 1`,             // for-min dropped a binding that raises
	"'\v'", // a query character outside XML's Char reached the output
), rows(row{doc: fixedDoc("prefixes.xml", `<r xmlns:p="urn:p" xmlns:q="urn:p"><p:a/><q:a q:x="1" p:y="2"/></r>`)},
	`(/r/*/name(), //@*/name())`, // two prefixes for one URI: the store kept the first for both
	`declare namespace p="urn:p"; declare namespace q="urn:p"; <r><p:a/><q:a q:x="1"/></r>`, // and two bound in the prolog, on sibling constructors
)...)

// chainRows are the step chains the runtime walks on one cursor over store
// ids, and their edges: chains from "/", "." and a variable; attribute,
// text() and node() last steps, self steps, wildcards and namespaced names;
// "//" chains, and "//x/y", which is not one; an empty chain; a chain of
// several items where one is required (XPTY0004); chains over constructed
// nodes and from a variable bound to an atomic value; and every consumer
// that reads one: comparisons, conditions, count/exists/empty, atomizing
// built-ins, attribute content and order by, with nested predicates that
// read position() and last() under a filter's reused focus.
var chainRows = rows(row{doc: demandDoc},
	`count(/bib/book/title)`,
	`for $b in /bib/book return string($b/title)`,
	`for $d in / return (count($d/bib/book), string($d/bib/book/price))`,
	`/bib/book[./price > 50]/title/string()`,
	`/bib/book/title/text()`,
	`count(/bib/node())`,
	`count(/bib/*/*)`,
	`count(/bib/book/@*)`,
	`string-join(/bib/book/@year, ",")`,
	`declare namespace x = "urn:x"; (string(/bib/book/@x:lang), count(/bib/book/x:note/node()), not(/bib/book/@x:lang))`,
	`declare namespace m = "urn:m"; (string(/bib/m:meta/m:title), count(/bib/*:meta/*:a/*:b), count(/bib/m:meta/b))`,
	`count(/bib/book/self::book) + count(/bib/book/title/self::node()/@*)`,
	`(count(//b), count(//book/@year), count(//@*), //book/@year = "2001")`,
	`//book/@year/string()`,
	`//book/title`,
	`(//*/title/string(), (//*/b)[1])`,
	`sum(//b)`,
	`(count(/bib/nothing/x), /bib/nothing/x = 1, string(/bib/nothing), exists(/bib/book/nothing), empty(/bib/nothing))`,
	`<e a="{/bib/nothing}" b="{/bib/book/@year}" c="{/bib/book/title}"/>`,
	`string(/bib/book/title)`,
	`/bib/book/price eq "1"`,
	`for $b in /bib/book order by $b/author/last return 1`,
	`for $b in /bib/book order by $b/@year descending return string($b/@year)`,
	`for $b in /bib/book order by $b/price/text() return $b/@year/string()`,
	`for $e in <e><f g="1">x</f><f>y</f></e> return (count($e/f), string($e/f/@g), $e/f/@g = 1, $e/f = "y")`,
	`for $c in (<c><d>2</d></c>, <c><d>3</d></c>) return string($c/d)`,
	`<e><f>1</f></e>/f = 1`,
	`for $v in (1, 2) return $v/a`,
	`let $v := "x" return count($v/a)`,
	`let $t := /bib/book/title return count(/bib/book[title = $t])`,
	`for $y in distinct-values(/bib/book/@year) order by $y return count(/bib/book[@year = $y])`,
	`(sum(/bib/book/price), max(/bib/book/@year), avg(//price), data(/bib/book/@year))`,
	`min(/bib/book/title)`,
	`(if (/bib/book/editor) then 1 else 2, /bib/book[editor]/@year/string(), boolean(/bib/nothing))`,
	`/bib/book[author[last()]/last = "Suciu"]/title/string()`,
	`/bib/book[position() = last()]/title/string()`,
	`/bib/book[count(author[position() < last()]) = 1]/@year/string()`,
	`//book[.//book[last()]/title]/@year/string()`,
	`/bib/book[title[. = ../title][position() = 1]][last()]/@year/string()`,
)
