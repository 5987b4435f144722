package streamexec

import (
	"encoding/xml"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xqgo/internal/faultinject"
	"xqgo/internal/projection"
	"xqgo/internal/runtime"
	"xqgo/internal/store"
	"xqgo/internal/tokens"
	"xqgo/internal/trace"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
)

// Stats are one Member's lifetime totals.
type Stats struct {
	// Windows opened by the spine automaton.
	Windows int64 `json:"windows"`
	// Results delivered (result items; for identity plans, one per window).
	Results int64 `json:"results"`
	// PeakBufferBytes is the high-water mark of bytes buffered at once
	// (estimated: window store content or queued window tokens).
	PeakBufferBytes int64 `json:"peakBufferBytes"`
	// OutputTokens serialized.
	OutputTokens int64 `json:"outputTokens"`
	// LastResultUnixNano is the wall clock of the most recent result
	// delivery (0 before the first): the /subscriptions lag gauge.
	LastResultUnixNano int64 `json:"lastResultUnixNano,omitempty"`
}

// maxWindowSpans bounds how many windows of one runner get individual trace
// spans: a long-lived feed opens unbounded windows, and exhausting the
// trace's span budget on them would crowd out the operator and summary spans
// synthesized at the end. Totals are always exact via the profile counters.
const maxWindowSpans = 64

// openWindow is one in-flight window of the nested (descendant-spine)
// identity mode.
type openWindow struct {
	seq   int64 // start order — results are delivered in this order
	depth int   // element depth of the window root
	buf   []tokens.Token
	bytes int64
	span  *trace.Span // nil past maxWindowSpans or without a trace
}

// Member is one query's seat in a Runner's window group: its residual plan
// (none for identity programs), its result sink, its totals, and the handle
// that detaches it. Close, Err and Stats are safe from any goroutine while
// the feed runs; everything else belongs to the feed goroutine.
type Member struct {
	prog      *Program
	emit      func(tokens.Token) error // counts the token, then writes it to the sink
	endResult func() error             // result boundary; nil in shared-writer mode

	// dyn is the dynamic context of the residual plan, reused for every
	// window (stable current-dateTime, same interrupt hook as the enclosing
	// execution), and exec the plan bound to it at the member's first window.
	// When the execution is profiled, dyn carries rprof — a profile sized for
	// the residual plan — never Env.Prof, whose operator slots belong to the
	// enclosing plan.
	dyn   *runtime.Dynamic
	exec  *runtime.Exec
	rprof *runtime.Profile // residual-plan profile; folded back in Finish

	outPend int64 // output tokens not yet flushed to the profile

	closed atomic.Bool
	mu     sync.Mutex
	err    error

	// Lifetime totals, atomic because Stats may be read live from another
	// goroutine (the /subscriptions introspection endpoint).
	windows      atomic.Int64
	results      atomic.Int64
	peakBuffer   atomic.Int64
	outputTokens atomic.Int64
	lastResult   atomic.Int64
}

// Close detaches the member: it opens no further windows and delivers no
// further results, while the rest of its group keeps going. Idempotent.
func (m *Member) Close() { m.closed.Store(true) }

// Err returns the error that detached the member, if any.
func (m *Member) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

func (m *Member) fail(err error) {
	m.mu.Lock()
	m.err = err
	m.mu.Unlock()
	m.closed.Store(true)
}

// Stats returns the member's totals so far.
func (m *Member) Stats() Stats {
	return Stats{
		Windows:            m.windows.Load(),
		Results:            m.results.Load(),
		PeakBufferBytes:    m.peakBuffer.Load(),
		OutputTokens:       m.outputTokens.Load(),
		LastResultUnixNano: m.lastResult.Load(),
	}
}

// Runner evaluates one window group over a decoder token stream: the
// streamable programs of one feed that share a spine. It owns what the group
// shares — the spine's automaton state and the window arena — and runs each
// member's residual plan over every completed window, in registration order.
// A single query (the Execute path) is a group of one.
//
// Two kinds of group exist. A residual group holds any number of child-only
// programs with a residual plan: the window is built once, in the arena, and
// evaluated per member when it closes. An identity group holds exactly one
// program without a residual, whose window tokens are forwarded as they
// arrive (child-only spines) or buffered per nested window (descendant
// spines).
//
// A Dispatcher feeds it (Token, then Finish at end of input). Not safe for
// concurrent use; one stream owns it.
type Runner struct {
	childOnly bool
	residual  bool
	env       Env

	members []*Member
	// live are the members attached when the current window opened; dead is
	// set once a window finds none, or the group failed as a whole.
	live []*Member
	dead bool

	// auto is the automaton ingestion projects with, over one path: the
	// spine. A child-only spine keeps the subtree of its matches, so inside a
	// window the automaton only counts depth and KeepingContent says whether
	// one is open; a descendant spine does not, so the automaton keeps
	// matching inside windows and reports each nested match as Target.
	auto *projection.Runner
	skip int // >0: inside a subtree the spine cannot reach, nesting counted

	depth int // element depth outside skipped subtrees (nested mode)

	// arena builds every window of a residual group, one after another, in
	// the same columns (see store.Builder.Reset): a window's nodes live until
	// the window closes, by which time every member has serialized its
	// results.
	arena *store.Builder
	fwd   forwarder // identity groups: start tags into fanOut

	open   []openWindow // nested mode: window stack (open[0] streams direct)
	queued []openWindow // nested mode: closed inner windows awaiting delivery
	seq    int64        // nested mode: start order of the next window

	windows int64 // windows opened by the group, each counted once

	curBytes int64
	peak     int64 // high-water mark of curBytes

	wSpan      *trace.Span // child-only mode: the current window's span
	spansTaken int         // window spans created so far (maxWindowSpans cap)
}

// forwarder is the xmlparse.StartSink of an identity group: a start tag
// becomes the tokens a scan of the stored element would yield. The sink's
// first two methods cannot fail, so the first emit error is held in err and
// the rest of the tag dropped.
type forwarder struct {
	emit func(tokens.Token) error
	err  error
}

func (f *forwarder) put(t tokens.Token) {
	if f.err == nil {
		f.err = f.emit(t)
	}
}

func (f *forwarder) StartElement(name xdm.QName) {
	f.put(tokens.Token{Kind: tokens.KindStartElement, Name: name})
}

func (f *forwarder) NSDecl(prefix, uri string) {
	f.put(tokens.Token{Kind: tokens.KindNamespace, Name: xdm.LocalName(prefix), Value: uri})
}

func (f *forwarder) Attr(name xdm.QName, value string) error {
	f.put(tokens.Token{Kind: tokens.KindAttribute, Name: name, Value: value})
	return f.err
}

// newRunner creates the group p founds; p and every later member join
// through add.
func newRunner(p *Program, env Env) *Runner {
	if !p.Streamable() {
		panic("streamexec: program is not streamable")
	}
	r := &Runner{
		childOnly: p.childOnly,
		residual:  p.residual != nil,
		env:       env,
		auto: projection.NewRunner(&projection.Paths{List: []projection.Path{
			{Steps: p.spine, KeepSubtree: p.childOnly},
		}}),
	}
	r.fwd.emit = r.fanOut
	return r
}

// accepts reports whether p can share this group's windows: both evaluate a
// residual over child-only windows of the same spine (the founder's).
func (r *Runner) accepts(p *Program) bool {
	return r.residual && p.residual != nil && slices.Equal(p.spine, r.members[0].prog.spine)
}

func (r *Runner) add(p *Program, sink func(tokens.Token) error, endResult func() error) *Member {
	m := &Member{prog: p, endResult: endResult}
	m.emit = func(t tokens.Token) error {
		m.outputTokens.Add(1)
		m.outPend++
		return sink(t)
	}
	if p.residual != nil {
		m.dyn = &runtime.Dynamic{
			Vars:      r.env.Vars,
			Now:       r.env.Now,
			Interrupt: r.env.Interrupt,
			Budget:    r.env.Budget,
		}
		if r.env.Prof != nil {
			m.rprof = p.ResidualProfile()
			m.dyn.Prof = m.rprof
		}
	}
	r.members = append(r.members, m)
	return m
}

// windowSpan opens a live trace span for one window, if the execution is
// traced and the runner's span budget allows.
func (r *Runner) windowSpan() *trace.Span {
	if r.env.Trace == nil || r.spansTaken >= maxWindowSpans {
		return nil
	}
	r.spansTaken++
	return r.env.Trace.StartSpan("window", r.env.TraceSpan).
		SetAttr("seq", r.windows)
}

// Token consumes one decoder token. Payload bytes are copied before the call
// returns.
//
// A member whose evaluation or delivery fails (or panics) is detached with
// its error and its siblings carry on; Token reports an error only when it
// ends the whole group — the last live member failed, or something the group
// shares did (the memory budget, the window build), which fails every live
// member alike. A group without live members ignores the rest of the feed.
func (r *Runner) Token(tok xml.Token) error {
	if r.dead {
		return nil
	}
	err := r.token(tok)
	if err != nil {
		r.failLive(err)
	}
	return err
}

// token is the group's recover boundary: a panic outside a member's own
// evaluation (a poisoned identity sink, a broken invariant) ends the group,
// never the feed.
func (r *Runner) token(tok xml.Token) (err error) {
	defer runtime.RecoverXQ(&err)
	switch t := tok.(type) {
	case xml.StartElement:
		return r.startElement(t)
	case xml.EndElement:
		return r.endElement()
	}
	if !r.inWindow() {
		return nil
	}
	switch t := tok.(type) {
	case xml.CharData:
		return r.content(tokens.Token{Kind: tokens.KindText, Value: string(t)})
	case xml.Comment:
		return r.content(tokens.Token{Kind: tokens.KindComment, Value: string(t)})
	case xml.ProcInst:
		if t.Target != "xml" { // not the XML declaration
			return r.content(tokens.Token{Kind: tokens.KindPI,
				Name: xdm.LocalName(t.Target), Value: string(t.Inst)})
		}
	}
	return nil
}

// failLive detaches every member still attached with err and retires the
// group.
func (r *Runner) failLive(err error) {
	for _, m := range r.members {
		if !m.closed.Load() {
			m.fail(err)
		}
	}
	r.dead = true
}

// Finish validates balance at end of input and flushes each attached
// member's counters.
func (r *Runner) Finish() error {
	if r.dead {
		return nil
	}
	if r.inWindow() {
		err := fmt.Errorf("streamexec: input ended inside a window")
		r.failLive(err)
		return err
	}
	for _, m := range r.members {
		if !m.closed.Load() {
			r.flushCounters(m)
			r.finishProfile(m)
		}
	}
	return nil
}

// finishProfile folds a member's residual-plan profile back into the
// enclosing execution's: engine counters merge into env.Prof, and when a
// trace is attached the residual's operator rows become op: spans under the
// execute span — the same per-operator cardinality view (observed
// items/starts vs. the static estimate) a store execution gets from post-run
// synthesis.
func (r *Runner) finishProfile(m *Member) {
	if m.rprof == nil {
		return
	}
	rep := m.rprof.Report()
	m.rprof = nil
	r.env.Prof.Merge(rep.Counters)
	if r.env.Trace == nil {
		return
	}
	now := time.Now()
	for _, op := range rep.Operators {
		r.env.Trace.AddSpan("op:"+op.Kind, r.env.TraceSpan, now, now,
			trace.Attr{Key: "detail", Value: op.Detail},
			trace.Attr{Key: "line", Value: op.Line},
			trace.Attr{Key: "col", Value: op.Col},
			trace.Attr{Key: "starts", Value: op.Starts},
			trace.Attr{Key: "items", Value: op.Items},
			trace.Attr{Key: "estItems", Value: op.EstItems})
	}
}

func (r *Runner) flushCounters(m *Member) {
	if m.outPend > 0 {
		r.env.Prof.AddXMLTokens(m.outPend)
		m.outPend = 0
	}
}

// ---- element events ----

func (r *Runner) startElement(t xml.StartElement) error {
	if r.skip > 0 {
		r.skip++
		return nil
	}
	inside := r.inWindow()
	act := r.auto.StartElement(t.Name.Space, t.Name.Local)
	if act == projection.Skip {
		// Never inside a window: a child-only window is a kept subtree, and
		// below a match of a descendant spine its // step stays live.
		r.skip = 1
		return nil
	}
	r.depth++
	switch act {
	case projection.KeepSubtree:
		// Child-only spine: the root of a window or, further in, its interior.
		if !inside {
			if !r.noteWindow() {
				return nil
			}
			r.wSpan = r.windowSpan()
			if r.residual {
				if r.arena == nil {
					r.arena = store.NewBuilder(store.BuilderOptions{})
				}
				r.arena.StartDocument()
			}
		}
	case projection.Target:
		// Descendant spine: a window of its own, inside any already open.
		if !r.noteWindow() {
			return nil
		}
		r.open = append(r.open, openWindow{seq: r.seq, depth: r.depth, span: r.windowSpan()})
		r.seq++
	}
	if !r.inWindow() {
		return nil
	}
	if !r.residual {
		_ = xmlparse.StartTag(t, &r.fwd) // the same error as r.fwd.err, or none
		return r.fwd.err
	}
	if err := xmlparse.StartTag(t, r.arena); err != nil {
		return err
	}
	est := int64(len(t.Name.Local)+len(t.Name.Space)) + 16
	for _, a := range t.Attr {
		est += int64(len(a.Name.Local)+len(a.Name.Space)+len(a.Value)) + 16
	}
	return r.addBuf(est)
}

func (r *Runner) endElement() error {
	if r.skip > 0 {
		r.skip--
		return nil
	}
	inside := r.inWindow()
	r.auto.EndElement()
	r.depth--
	if !inside {
		return nil
	}
	if r.residual {
		r.arena.EndElement()
	} else if err := r.fanOut(tokens.Token{Kind: tokens.KindEndElement}); err != nil {
		return err
	}
	switch {
	case !r.childOnly:
		if r.open[len(r.open)-1].depth == r.depth+1 {
			return r.closeNestedWindow()
		}
	case !r.auto.KeepingContent():
		return r.closeChildWindow()
	}
	return nil
}

// content takes character data, a comment or a processing instruction inside
// a window; the one string conversion of its payload serves every member.
func (r *Runner) content(t tokens.Token) error {
	if !r.residual {
		return r.fanOut(t)
	}
	switch t.Kind {
	case tokens.KindText:
		r.arena.Text(t.Value)
	case tokens.KindComment:
		r.arena.Comment(t.Value)
	case tokens.KindPI:
		r.arena.PI(t.Name.Local, t.Value)
	}
	return r.addBuf(tokBytes(t))
}

func (r *Runner) inWindow() bool {
	if r.childOnly {
		return r.auto.KeepingContent()
	}
	return len(r.open) > 0
}

// ---- child-only windows ----

// closeChildWindow delivers the window whose end tag was just taken.
func (r *Runner) closeChildWindow() error {
	if !r.residual {
		r.wSpan.End()
		r.wSpan = nil
		return r.finishResult(r.members[0])
	}
	doc, err := r.arena.Done()
	if err != nil {
		return err
	}
	// Node 0 is the document node, node 1 the window element. Members run
	// one after another over the same nodes; one that fails is detached
	// alone.
	win := doc.Node(1)
	attached := 0
	for _, m := range r.live {
		if m.closed.Load() {
			continue
		}
		if err = r.evalWindow(m, win); err != nil {
			m.fail(err)
			continue
		}
		r.flushCounters(m)
		attached++
	}
	r.wSpan.SetAttr("bufferBytes", r.curBytes).End()
	r.wSpan = nil
	r.dropBuf(r.curBytes)
	r.arena.Reset()
	if attached == 0 {
		// err is the last member's failure, or nil when they were all closed
		// by their owners; either way nobody is left to build windows for.
		r.dead = true
		return err
	}
	return nil
}

// evalWindow runs one member's residual plan over the completed window.
func (r *Runner) evalWindow(m *Member, win *store.Node) (err error) {
	// StreamedNode accessors surface errors by panicking; convert at the
	// boundary like the store engine does. Non-error panics become XQGO0002
	// errors so a poisoned window detaches only its own subscription.
	defer runtime.RecoverXQ(&err)
	faultinject.FirePanic(faultinject.WindowPanic)
	if m.exec == nil {
		if m.exec, err = m.prog.residual.NewExec(m.dyn); err != nil {
			return err
		}
	}
	it := m.exec.Run(win)
	for {
		item, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := tokens.EmitItem(item, m.emit); err != nil {
			return err
		}
		if err := r.finishResult(m); err != nil {
			return err
		}
	}
}

// ---- nested identity windows ----

// fanOut delivers one content token to every open window: the outermost
// streams directly, inner windows buffer their own copy (each is a separate
// result whose subtree overlaps the outer one).
func (r *Runner) fanOut(t tokens.Token) error {
	if err := r.members[0].emit(t); err != nil {
		return err
	}
	for i := 1; i < len(r.open); i++ {
		w := &r.open[i]
		w.buf = append(w.buf, t)
		w.bytes += tokBytes(t)
		if err := r.addBuf(tokBytes(t)); err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) closeNestedWindow() error {
	m := r.members[0]
	n := len(r.open) - 1
	w := r.open[n]
	r.open = r.open[:n]
	w.span.SetAttr("bufferBytes", w.bytes).End()
	if n > 0 {
		// An inner window completed: deliverable only after the outermost
		// closes (its direct stream is still in progress).
		r.queued = append(r.queued, w)
		return nil
	}
	// The outermost window's direct stream just ended; release the inner
	// windows it delayed, in start (document) order.
	if err := r.finishResult(m); err != nil {
		return err
	}
	sort.Slice(r.queued, func(i, j int) bool { return r.queued[i].seq < r.queued[j].seq })
	for _, q := range r.queued {
		for _, t := range q.buf {
			if err := m.emit(t); err != nil {
				return err
			}
		}
		r.dropBuf(q.bytes)
		if err := r.finishResult(m); err != nil {
			return err
		}
	}
	r.queued = r.queued[:0]
	r.flushCounters(m)
	return nil
}

// ---- accounting ----

// noteWindow counts a window the automaton just matched for every member
// still attached — they are the ones it will be evaluated for — and reports
// whether there is any; if not, the group retires without opening it.
func (r *Runner) noteWindow() bool {
	r.live = r.live[:0]
	for _, m := range r.members {
		if !m.closed.Load() {
			m.windows.Add(1)
			r.live = append(r.live, m)
		}
	}
	if len(r.live) == 0 {
		r.dead = true
		return false
	}
	r.env.Prof.AddStreamWindows(int64(len(r.live)))
	r.windows++
	return true
}

func (r *Runner) finishResult(m *Member) error {
	m.results.Add(1)
	m.lastResult.Store(time.Now().UnixNano())
	r.env.Prof.AddStreamResults(1)
	if m.endResult != nil {
		return m.endResult()
	}
	return nil
}

// addBuf grows the live buffer estimate and maintains the high-water marks:
// the group's, each attached member's, and the profile's (published as it
// rises, so /metrics stays current during long feeds). Buffered bytes are
// charged against the execution's memory budget — these are exactly the
// retained bytes Koch et al.'s buffer bound is about — once per window
// however many members share it, and discharged by dropBuf as windows
// deliver.
func (r *Runner) addBuf(n int64) error {
	r.curBytes += n
	if r.curBytes > r.peak {
		r.peak = r.curBytes
		for _, m := range r.live {
			m.peakBuffer.Store(r.peak)
		}
		r.env.Prof.NoteStreamBufferPeak(r.peak)
	}
	return r.env.Budget.Charge(n)
}

// dropBuf releases delivered window bytes from the live estimate and the
// budget.
func (r *Runner) dropBuf(n int64) {
	r.curBytes -= n
	r.env.Budget.Discharge(n)
}

// tokBytes estimates the retained size of one buffered token.
func tokBytes(t tokens.Token) int64 {
	return int64(len(t.Name.Space)+len(t.Name.Local)+len(t.Value)) + 16
}
