package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"xqgo"
	"xqgo/internal/workload"
)

type opKind uint8

const (
	opQuery       opKind = iota // POST /query, JSON in, JSON out
	opQueryStream               // POST /query with "stream": true, XML out
	opBodyQuery                 // POST /query?query=, XML body in, XML out
	opSubscribe                 // POST /subscribe?query=..., XML feed in, SSE out
	opPut                       // PUT /documents/{name}
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"query", "query-stream", "body-query", "subscribe", "put"}[k]
}

// streams reports whether the response body is produced while the request is
// still being evaluated; time to first byte is taken over these requests.
func (k opKind) streams() bool { return k == opQueryStream || k == opBodyQuery || k == opSubscribe }

// sendsXML reports whether the request body is XML for the server to parse.
func (k opKind) sendsXML() bool { return k == opBodyQuery || k == opSubscribe || k == opPut }

// op is one pre-serialised request together with what the in-process replay
// and the output check need to know about it.
type op struct {
	kind opKind
	path string // URL path and query string
	body []byte // request body, ready to send

	query   string   // query text (all kinds but opSubscribe and opPut)
	queries []string // opSubscribe: the continuous queries
	doc     string   // catalog document: query context, or PUT target

	// literal, when non-zero, replaces the adhocLiteral placeholder found at
	// literalAt in body and once in query: it makes the query text unique.
	literal   int64
	literalAt int

	want *expected
}

// expected is filled by the workload's oracle after set-up.
type expected struct {
	ready  bool
	result string     // serialized result of a query
	items  [][]string // opSubscribe: result items per subscription
}

// text returns the op's query text with the literal in place.
func (o *op) text() string {
	if o.literal == 0 {
		return o.query
	}
	return strings.Replace(o.query, adhocLiteral, strconv.FormatInt(o.literal, 10), 1)
}

// workloadSpec names a workload, says which layer it was built to load and
// how to make one.
type workloadSpec struct {
	name string
	// dominant lists the layer groups that together should take most of the
	// in-process time; the workload-validity report checks it.
	dominant []string
	// hitShare is the plan-cache hit share the workload is built to have.
	hitShare float64
	new      func() scenario
}

var workloads = []workloadSpec{
	{"catalog-read", []string{"execute"}, 1, func() scenario { return &catalogRead{} }},
	{"adhoc-compile", []string{"compile"}, 0, func() scenario { return &adhocCompile{} }},
	{"stream-feed", []string{"xmlparse", "streamexec"}, 1, func() scenario { return &streamFeed{} }},
	{"doc-churn", []string{"xmlparse", "store", "structjoin"}, 1, func() scenario { return &docChurn{} }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scenario is one workload instance. generate and install are the timed
// set-up; expect runs afterwards, outside any timing.
type scenario interface {
	// generate makes every input from the seed and serialises every request.
	generate(seed int64)
	// install registers documents and warms plans and indexes over HTTP.
	install(c *client) error
	// expect computes the expected result of every request.
	expect() error
	// op returns the i-th request of a client's closed loop.
	op(client, i int) op
	// inputs returns the XML texts the workload hands to the server.
	inputs() [][]byte
	// cycle is the number of requests after which a client has sent every
	// distinct request of its sequence.
	cycle() int
}

type queryBody struct {
	Query  string `json:"query"`
	Doc    string `json:"doc"`
	Stream bool   `json:"stream,omitempty"`
}

func jsonQueryOp(q refQuery, doc string, stream bool) op {
	body, err := json.Marshal(queryBody{Query: q.text, Doc: doc, Stream: stream})
	if err != nil {
		panic(err)
	}
	kind := opQuery
	if stream {
		kind = opQueryStream
	}
	return op{kind: kind, path: "/query", body: body, query: q.text, doc: doc, want: &expected{}}
}

func putOp(name string, xml []byte) op {
	return op{kind: opPut, path: "/documents/" + name, body: xml, doc: name, want: &expected{}}
}

// sendAll sends each op once and fails on the first that is not answered 2xx.
func sendAll(c *client, ops []op) error {
	for i := range ops {
		if r := c.do(&ops[i]); r.err != nil {
			return fmt.Errorf("%s %s: %w", ops[i].kind, ops[i].path, r.err)
		}
	}
	return nil
}

func ordersXML(lines int, seed int64) []byte {
	return []byte(workload.DocToXML(workload.Orders(workload.OrdersConfig{Lines: lines, Sellers: 10, Seed: seed})))
}

func deepXML(nodes int, seed int64) []byte {
	return []byte(workload.DocToXML(workload.Deep(workload.DeepConfig{Nodes: nodes, Seed: seed})))
}

func bibXML(books int, seed int64) []byte {
	return []byte(workload.DocToXML(workload.Bib(workload.BibConfig{Books: books, Seed: seed})))
}

// ---- catalog-read ----

// catalogQueries are the 16 fixed texts of catalog-read with the document
// each runs on.
var catalogQueries = []struct {
	doc string
	q   refQuery
}{
	{"orders", qPaper}, {"orders", qIDs}, {"orders", qCountLines}, {"orders", qSumQuantity},
	{"orders", qFirstTen}, {"orders", qOrderBy}, {"orders", qConstruct}, {"orders", qBranch},
	{"bib", qTitles1994}, {"bib", qExpensive}, {"bib", qSpringer}, {"bib", qThreeAuthors},
	{"bib", qYearHistogram},
	{"deep", qChainABC}, {"deep", qChainDA}, {"deep", qDeep42},
}

// catalogCycle is the length of a client's rotation: the 16 texts plus the
// paper's FLWOR a second time. With 16 equally frequent texts the median
// request would sit on the border between two of them and jump from run to
// run; 17 slots keep both the median and the 95th percentile inside one text.
const catalogCycle = 17

type catalogRead struct {
	docs map[string][]byte
	// ops[slot][0] answers in JSON, ops[slot][1] streams.
	ops [catalogCycle][2]op
}

func (w *catalogRead) generate(seed int64) {
	w.docs = map[string][]byte{
		"orders": ordersXML(10000, seed*1000+1),
		"bib":    bibXML(4000, seed*1000+2),
		"deep":   deepXML(30000, seed*1000+3),
	}
	for slot := range w.ops {
		cq := catalogQueries[slot%len(catalogQueries)]
		w.ops[slot] = [2]op{jsonQueryOp(cq.q, cq.doc, false), jsonQueryOp(cq.q, cq.doc, true)}
	}
}

func (w *catalogRead) install(c *client) error {
	for _, name := range []string{"orders", "bib", "deep"} {
		put := putOp(name, w.docs[name])
		if r := c.do(&put); r.err != nil {
			return fmt.Errorf("register %s: %w", name, r.err)
		}
	}
	// One pass compiles every plan and builds every join index.
	for slot := range w.ops {
		if err := sendAll(c, w.ops[slot][:]); err != nil {
			return err
		}
	}
	return nil
}

func (w *catalogRead) expect() error {
	trees := map[string]*rnode{}
	for name, src := range w.docs {
		t, err := parseRef(src)
		if err != nil {
			return err
		}
		trees[name] = t
	}
	for slot := range w.ops {
		cq := catalogQueries[slot%len(catalogQueries)]
		res := cq.q.ref(trees[cq.doc]).joined()
		*w.ops[slot][0].want = expected{ready: true, result: res}
		*w.ops[slot][1].want = expected{ready: true, result: res}
	}
	return nil
}

func (w *catalogRead) op(client, i int) op {
	// Clients start half a rotation apart; every 4th request streams, and 4
	// and 17 share no factor, so every text is streamed in turn.
	slot := (i + client*8) % catalogCycle
	stream := 0
	if i%4 == 3 {
		stream = 1
	}
	return w.ops[slot][stream]
}

func (w *catalogRead) cycle() int { return 4 * catalogCycle }

func (w *catalogRead) inputs() [][]byte {
	return [][]byte{w.docs["orders"], w.docs["bib"], w.docs["deep"]}
}

// ---- adhoc-compile ----

// adhocPool is the number of generated query templates. The measured loop
// cycles through them and gives each send a literal of its own, so every
// query text the server sees is new and the plan cache (256) never hits.
const adhocPool = 1024

type adhocCompile struct {
	bib []byte
	ops []op
}

func (w *adhocCompile) generate(seed int64) {
	w.bib = bibXML(20, seed*1000+4)
	tree, err := parseRef(w.bib)
	if err != nil {
		panic(err)
	}
	var years []int
	for _, b := range books(tree) {
		y, _ := strconv.Atoi(b.attr("year"))
		years = append(years, y)
	}
	rng := rand.New(rand.NewSource(seed))
	w.ops = make([]op, adhocPool)
	for i := range w.ops {
		q := genAdhoc(rng, i, years)
		o := jsonQueryOp(refQuery{text: q.text}, "bib", false)
		o.literalAt = strings.Index(string(o.body), adhocLiteral)
		// The generator evaluated the query as it wrote it, so the expected
		// result exists before the server is asked.
		*o.want = expected{ready: true, result: q.base}
		w.ops[i] = o
	}
}

func (w *adhocCompile) install(c *client) error {
	put := putOp("bib", w.bib)
	return c.do(&put).err
}

func (w *adhocCompile) expect() error { return nil }

func (w *adhocCompile) op(client, i int) op {
	o := w.ops[(i*maxClients+client)%len(w.ops)]
	o.literal = 1_000_000_000 + int64(i*maxClients+client)
	return o
}

func (w *adhocCompile) inputs() [][]byte { return [][]byte{w.bib} }

func (w *adhocCompile) cycle() int { return adhocPool / maxClients }

// ---- stream-feed ----

// streamQueries are the XML-body queries: every streamexec class, the
// bounded-buffer one as a FLWOR and as a predicate path.
var streamQueries = []struct {
	q     refQuery
	class xqgo.StreamClass
}{
	{qIDs, xqgo.StreamFullyStreamable},
	{qPaper, xqgo.StreamBoundedBuffer},
	{qSeller2, xqgo.StreamBoundedBuffer},
	{qCountSeller1, xqgo.StreamStoreRequired},
}

// subscribeQueries are the 8 continuous queries of one feed: 6 run on the
// event automaton, 2 need the store.
var subscribeQueries = []struct {
	q     refQuery
	class xqgo.StreamClass
}{
	{qDate, xqgo.StreamFullyStreamable},
	{qPaper, xqgo.StreamBoundedBuffer},
	{qSeller2, xqgo.StreamBoundedBuffer},
	{qNotes, xqgo.StreamBoundedBuffer},
	{qHits, xqgo.StreamBoundedBuffer},
	{qItems, xqgo.StreamBoundedBuffer},
	{qCountLines, xqgo.StreamStoreRequired},
	{qSumQuantity, xqgo.StreamStoreRequired},
}

const streamBodies = 8

// streamCycle is one client's rotation over a body: the four body queries
// and one feed. A feed takes four times as long as a query, so at 1 in 5 it
// is half of the workload's time; alternating them would leave a run fewer
// than the 200 requests its 95th percentile needs, and would put the median
// request on the border between queries and feeds.
var streamCycle = [...]int{0, 1, 2, 3, -1} // index into streamQueries, -1 = subscribe

type streamFeed struct {
	bodies [streamBodies][]byte
	// ops[body][slot of streamCycle]
	ops [streamBodies][len(streamCycle)]op
}

func (w *streamFeed) generate(seed int64) {
	var subPath strings.Builder
	subPath.WriteString("/subscribe?")
	var subTexts []string
	for i, s := range subscribeQueries {
		if i > 0 {
			subPath.WriteByte('&')
		}
		subPath.WriteString("query=" + url.QueryEscape(s.q.text))
		subTexts = append(subTexts, s.q.text)
	}
	for b := range w.bodies {
		// 7900 order lines serialise to 1 MiB within a per cent.
		w.bodies[b] = ordersXML(7900, seed*1000+10+int64(b))
		for slot, qi := range streamCycle {
			if qi < 0 {
				w.ops[b][slot] = op{kind: opSubscribe, path: subPath.String(), body: w.bodies[b],
					queries: subTexts, want: &expected{}}
				continue
			}
			text := streamQueries[qi].q.text
			w.ops[b][slot] = op{kind: opBodyQuery, path: "/query?query=" + url.QueryEscape(text),
				body: w.bodies[b], query: text, want: &expected{}}
		}
	}
}

func (w *streamFeed) install(c *client) error {
	// The classes are what make this workload what it is: a query that
	// changed class would silently measure something else.
	for _, group := range [][]struct {
		q     refQuery
		class xqgo.StreamClass
	}{streamQueries, subscribeQueries} {
		for _, s := range group {
			q, err := xqgo.Compile(s.q.text, nil)
			if err != nil {
				return err
			}
			if got, why := q.Streamability(); got != s.class {
				return fmt.Errorf("query %q is %v (%s), the workload needs %v", s.q.name, got, why, s.class)
			}
		}
	}
	return sendAll(c, w.ops[0][:])
}

func (w *streamFeed) expect() error {
	for b := range w.bodies {
		tree, err := parseRef(w.bodies[b])
		if err != nil {
			return err
		}
		for slot, qi := range streamCycle {
			want := w.ops[b][slot].want
			if qi >= 0 {
				*want = expected{ready: true, result: streamQueries[qi].q.ref(tree).joined()}
				continue
			}
			*want = expected{ready: true}
			for _, s := range subscribeQueries {
				want.items = append(want.items, s.q.ref(tree).items)
			}
		}
	}
	return nil
}

func (w *streamFeed) op(client, i int) op {
	cycle, slot := i/len(streamCycle), i%len(streamCycle)
	return w.ops[(cycle*maxClients+client)%streamBodies][slot]
}

func (w *streamFeed) inputs() [][]byte { return w.bodies[:] }

func (w *streamFeed) cycle() int { return len(streamCycle) * streamBodies / maxClients }

// ---- doc-churn ----

const (
	churnPool        = 32
	churnNamesPerCli = 4
)

// churnQueries are the 4 queries that follow a PUT, per document shape: a
// descendant chain (its first use builds DocStats and the join index), a
// predicate path, a count and a FLWOR. On the Deep shape the path and the
// FLWOR stay in the top levels and the count is a second chain: navigating
// the whole of a Deep document costs several times its PUT, and the workload
// is there for the write side.
var churnQueries = map[bool][4]refQuery{
	true:  {qChainABC, qShallowPath, qChainDA, qShallowFLWOR}, // Deep shape
	false: {qLineIDs, qSeller2, qCountLines, qPaper},          // Orders shape
}

type docChurn struct {
	pool [churnPool][]byte
	// ops[name][pool document][0] is the PUT, [1..4] the queries.
	ops [maxClients * churnNamesPerCli][churnPool][5]op
}

// churnDeep says whether pool document p has the Deep shape. One in three
// has, not one in two: ten equally frequent request kinds would put the
// median on the border between two of them.
func churnDeep(p int) bool { return p%3 == 0 }

func (w *docChurn) generate(seed int64) {
	for p := range w.pool {
		if churnDeep(p) {
			w.pool[p] = deepXML(42000, seed*1000+100+int64(p)) // 256 KiB within a few per cent
		} else {
			w.pool[p] = ordersXML(1980, seed*1000+100+int64(p))
		}
	}
	for n := range w.ops {
		name := "churn" + strconv.Itoa(n)
		for p := range w.pool {
			w.ops[n][p][0] = putOp(name, w.pool[p])
			for k, q := range churnQueries[churnDeep(p)] {
				w.ops[n][p][k+1] = jsonQueryOp(q, name, false)
			}
		}
	}
}

func (w *docChurn) install(c *client) error {
	// Compile the 8 plans once, on one document of each shape.
	if err := sendAll(c, w.ops[0][0][:]); err != nil {
		return err
	}
	return sendAll(c, w.ops[0][1][:])
}

func (w *docChurn) expect() error {
	for p := range w.pool {
		tree, err := parseRef(w.pool[p])
		if err != nil {
			return err
		}
		for k, q := range churnQueries[churnDeep(p)] {
			res := q.ref(tree).joined()
			for n := range w.ops {
				*w.ops[n][p][k+1].want = expected{ready: true, result: res}
			}
		}
	}
	return nil
}

func (w *docChurn) op(client, i int) op {
	cycle, step := i/5, i%5
	name := client*churnNamesPerCli + cycle%churnNamesPerCli
	return w.ops[name][(cycle*maxClients+client)%churnPool][step]
}

func (w *docChurn) inputs() [][]byte { return w.pool[:] }

func (w *docChurn) cycle() int { return 5 * churnPool / maxClients }
