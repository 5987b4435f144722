package runtime

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"xqgo/internal/faultinject"
	"xqgo/internal/limits"
	"xqgo/internal/optimizer"
	"xqgo/internal/projection"
	"xqgo/internal/store"
	"xqgo/internal/structjoin"
	"xqgo/internal/trace"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
)

// Dynamic is the dynamic evaluation context shared by one execution:
// external variable values, the document resolver, and the stable current
// dateTime.
type Dynamic struct {
	// Vars maps external variable names (Clark notation) to values.
	Vars map[string]xdm.Sequence
	// ContextItem, when non-nil, is the initial context item.
	ContextItem xdm.Item
	// Resolver loads documents for fn:doc/fn:document. Nil installs the
	// default resolver (registry + filesystem).
	Resolver DocResolver
	// Collections maps collection URIs to sequences.
	Collections map[string]xdm.Sequence
	// Now is the stable current dateTime; zero means time.Now at first use.
	Now time.Time

	// Interrupt, when non-nil, is polled periodically while the engine
	// iterates (a step budget: every interruptStride productive iterator
	// steps). A non-nil return aborts the execution with that error. This is
	// the cancellation hook the service layer uses for per-request deadlines
	// and client disconnects; long-running queries observe it even in the
	// middle of an aggregate that never yields an item to the caller.
	Interrupt func() error

	// Stream, when non-nil, is a pending streaming XML input: it becomes
	// the context document (and resolves under its URI) and is parsed
	// incrementally as the query pulls, under the plan's projection.
	Stream *StreamState

	// Prof, when non-nil, collects execution statistics (see Profile). The
	// engine only ever nil-checks this pointer on the hot path, so leaving
	// it nil keeps profiling free.
	Prof *Profile

	// Trace, when non-nil, collects request-scoped spans (see
	// internal/trace). The engine itself never touches it on the hot path —
	// per-operator and ingestion spans are synthesized from Prof counters
	// after execution — so the per-item cost of tracing is zero; only
	// coarse-grained stages (streaming windows, delivery) record live spans.
	// TraceSpan is the parent span execution-stage spans hang under.
	Trace     *trace.Trace
	TraceSpan *trace.Span

	// Budget, when non-nil, is the execution's memory budget: hot
	// allocation sites charge the bytes they retain and overage surfaces
	// as a structured error (see internal/limits). Shared by value across
	// worker forks — Budget is internally atomic.
	Budget *limits.Budget

	// Workers is the morsel-parallelism target for this execution: the
	// total number of workers (including the pulling goroutine) the
	// morsel-split loops may use per round (see morsel.go). Zero or one
	// keeps every loop sequential. Extra workers beyond the first are
	// leased per round from Limiter.
	Workers int
	// Limiter arbitrates extra morsel workers against a shared slot pool;
	// nil uses the process-wide GOMAXPROCS pool.
	Limiter WorkerLimiter

	// root, on a worker context created by fork, points at the execution's
	// base context owning the shared per-execution caches (indexes, memo,
	// stable dateTime, lazily installed resolver). Nil on the base itself.
	root *Dynamic
	// resolveMu guards the lazy Resolver install in resolver(); worker
	// goroutines hit it concurrently on their first fn:doc.
	resolveMu sync.Mutex

	once    sync.Once
	nowAtom xdm.Atomic
	indexes indexCache
	memo    memoCache
	steps   atomic.Uint64
	// plans caches the per-(operator, document) join-strategy decision for
	// this execution (see strategy.go); guarded by planMu, lives on base.
	planMu sync.Mutex
	plans  map[planKey]optimizer.Strategy
	// proj is the executing plan's static projection, installed by
	// newRootFrame for the streamed-input parse. Atomic because a shared
	// Context may back concurrent executions of the same plan (every
	// writer stores the same plan's projection, so any observed value is
	// correct for the stream's one-shot parse).
	proj atomic.Pointer[projection.Paths]
}

// base returns the context owning the shared per-execution caches; a worker
// context created by fork delegates to the execution it was forked from.
func (d *Dynamic) base() *Dynamic {
	if d.root != nil {
		return d.root
	}
	return d
}

// fork creates a per-worker slice of the dynamic context: shared inputs are
// carried over by value, while every piece of mutable hot-path state — the
// interrupt step counter and the profile shard — is private to the
// returned context. Shared caches (structural-join indexes,
// the call memo, the stable dateTime, the lazily installed resolver) stay
// on the base and are reached through base(). Dynamic holds locks and
// atomics, so this is a deliberate field-by-field copy rather than a struct
// copy.
func (d *Dynamic) fork() *Dynamic {
	b := d.base()
	w := &Dynamic{
		Vars:        d.Vars,
		ContextItem: d.ContextItem,
		Resolver:    d.Resolver,
		Collections: d.Collections,
		Now:         d.Now,
		Interrupt:   d.Interrupt,
		Stream:      d.Stream,
		Prof:        d.Prof.shard(),
		Trace:       d.Trace,
		TraceSpan:   d.TraceSpan,
		Budget:      d.Budget,
		Workers:     1, // workers never nest their own morsel rounds
		root:        b,
	}
	w.proj.Store(d.proj.Load())
	return w
}

// interruptStride bounds how often the Interrupt hook actually runs: once
// per this many CheckInterrupt calls. Checks are placed on the engine's
// unbounded loops (path steps, FLWOR tuples, ranges), so a runaway query
// polls its deadline every few thousand items at worst.
const interruptStride = 256

// CheckInterrupt polls the cancellation hook, rate-limited by the step
// budget. The counter is per-context: parallel workers run on forked
// contexts, so each has its own counter (no shared cache line in the
// hottest loop) while the deadline check itself — the Interrupt hook —
// stays shared, keeping every worker's poll latency bounded by one stride.
func (d *Dynamic) CheckInterrupt() error {
	if d.Interrupt == nil {
		return nil
	}
	if d.steps.Add(1)%interruptStride != 0 {
		return nil
	}
	d.Prof.addInterruptPoll()
	return d.Interrupt()
}

// SeedIndex pre-populates the per-execution structural-join index cache
// with an already built index. The service layer's document catalog builds
// one index per document and shares it across requests, so concurrent
// executions skip the per-Dynamic lazy build.
func (d *Dynamic) SeedIndex(doc *store.Document, idx *structjoin.Index) {
	d.base().indexes.seed(doc, idx)
}

// DocResolver resolves a document URI to its document node.
type DocResolver interface {
	Doc(uri string) (xdm.Node, error)
}

// DocRegistry is the default resolver: an in-memory URI->document map with
// optional filesystem fallback. Filesystem misses resolve outside the lock
// with single-flight per URI, so concurrent fn:doc calls for different
// documents proceed in parallel and concurrent calls for the same document
// share one parse instead of racing to duplicate it.
type DocRegistry struct {
	mu    sync.Mutex
	docs  map[string]xdm.Node
	loads map[string]*docLoad
	useFS bool
}

// docLoad is one in-flight filesystem load; waiters block on done and then
// read node/err. Failed loads are not cached — the next caller retries.
type docLoad struct {
	done chan struct{}
	node xdm.Node
	err  error
}

// NewDocRegistry creates a registry. When allowFS is set, unknown URIs are
// read from the local filesystem.
func NewDocRegistry(allowFS bool) *DocRegistry {
	return &DocRegistry{docs: make(map[string]xdm.Node), useFS: allowFS}
}

// Register adds a parsed document under a URI.
func (r *DocRegistry) Register(uri string, doc xdm.Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.docs[uri] = doc
}

// AllowFilesystem toggles the filesystem fallback for unknown URIs without
// discarding existing registrations.
func (r *DocRegistry) AllowFilesystem(allow bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.useFS = allow
}

// Doc implements DocResolver.
func (r *DocRegistry) Doc(uri string) (xdm.Node, error) {
	r.mu.Lock()
	if d, ok := r.docs[uri]; ok {
		r.mu.Unlock()
		return d, nil
	}
	if !r.useFS {
		r.mu.Unlock()
		return nil, xdm.Errf("FODC0002", "document %q not found", uri)
	}
	if l, ok := r.loads[uri]; ok {
		// Another goroutine is already loading this URI: wait for it.
		r.mu.Unlock()
		<-l.done
		return l.node, l.err
	}
	l := &docLoad{done: make(chan struct{})}
	if r.loads == nil {
		r.loads = make(map[string]*docLoad)
	}
	r.loads[uri] = l
	r.mu.Unlock()

	// Slow path outside the lock: unrelated URIs load concurrently. The
	// load runs under a recover boundary — a panicking parse must still
	// reach the close(l.done) below, or every waiter on this URI would
	// block forever.
	l.node, l.err = safeLoadDocFS(uri)

	r.mu.Lock()
	if l.err == nil {
		r.docs[uri] = l.node
	}
	delete(r.loads, uri)
	r.mu.Unlock()
	close(l.done)
	return l.node, l.err
}

// safeLoadDocFS is the single-flight load's recover boundary: panics in
// the loader (or injected by the chaos harness) become ordinary errors so
// waiters are always released.
func safeLoadDocFS(uri string) (n xdm.Node, err error) {
	defer recoverXQ(&err)
	faultinject.FirePanic(faultinject.DocLoadPanic)
	return loadDocFS(uri)
}

// loadDocFS reads and parses one document from the local filesystem.
func loadDocFS(uri string) (xdm.Node, error) {
	f, err := os.Open(uri)
	if err != nil {
		return nil, xdm.Errf("FODC0002", "cannot open document %q: %v", uri, err)
	}
	defer f.Close()
	doc, err := xmlparse.Parse(f, xmlparse.Options{URI: uri})
	if err != nil {
		return nil, xdm.Errf("FODC0002", "cannot parse document %q: %v", uri, err)
	}
	return doc.RootNode(), nil
}

func (d *Dynamic) resolver() DocResolver {
	b := d.base()
	b.resolveMu.Lock()
	defer b.resolveMu.Unlock()
	if b.Resolver == nil {
		b.Resolver = NewDocRegistry(true)
	}
	return b.Resolver
}

func (d *Dynamic) currentDateTime() xdm.Atomic {
	b := d.base()
	b.once.Do(func() {
		t := b.Now
		if t.IsZero() {
			t = time.Now()
		}
		b.nowAtom = xdm.NewDateTime(t.UTC(), "")
	})
	return b.nowAtom
}

// Frame is one link of the binding-environment chain: it either binds a
// variable (id >= 0) or establishes a focus (context item / position /
// size). Frames are immutable once created, so lazily-evaluated thunks can
// safely capture them — with two exceptions. A filter re-points its one
// focus frame at each item it tests (filterIter.at). That rests on an
// invariant of conditions: a condFn returns only after everything it built
// under the frame is dead, since its result is a bool. And the last for
// clause of a FLWOR reuses its tuple frames once its consumer pulls again
// (forClauseState), so whatever keeps a frame past that pull pins it.
type Frame struct {
	parent *Frame
	dyn    *Dynamic

	id  int // variable id bound here; -1 if none
	val *LazySeq

	hasFocus bool
	pinned   bool // kept past the pull that made it (see pin)
	ctxItem  xdm.Item
	ctxPos   int64
	ctxLast  func() (int64, error) // lazy: materializes only if called

	// isBarrier blocks focus lookup: function bodies have no context item.
	isBarrier bool
}

// rootFrame creates the outermost frame.
func rootFrame(dyn *Dynamic) *Frame {
	f := &Frame{dyn: dyn, id: -1}
	if dyn.ContextItem != nil {
		f.hasFocus = true
		f.ctxItem = dyn.ContextItem
		f.ctxPos = 1
		f.ctxLast = lastOfOne
	}
	return f
}

// lastOfOne is fn:last() in the initial focus: the context item is alone.
func lastOfOne() (int64, error) { return 1, nil }

// bind creates a child frame binding variable id to val.
func (f *Frame) bind(id int, val *LazySeq) *Frame {
	return &Frame{parent: f, dyn: f.dyn, id: id, val: val}
}

// pin marks f and its ancestors as kept past the pull that made them: a
// lazily constructed node evaluates its content under f when it is
// serialized, long after its tuple. A recycling for clause replaces a
// pinned tuple's slot instead of reusing it. Every ancestor of a pinned
// frame is pinned, so the walk stops at the first one. Work handed to
// morsel workers is pinned on the pulling goroutine first, so the workers'
// own pins stop at their copies and never write a shared frame.
func (f *Frame) pin() {
	for p := f; p != nil && !p.pinned; p = p.parent {
		p.pinned = true
	}
}

// withDyn re-roots a frame onto a worker context: a shallow head copy whose
// dyn is w. Parent frames keep the original dyn, but only the head frame's
// dyn is ever consulted during evaluation (bindings chain through parents,
// the context does not), so this is how a morsel worker evaluates under a
// caller-built binding environment.
func (f *Frame) withDyn(w *Dynamic) *Frame {
	cp := *f
	cp.dyn = w
	return &cp
}

// focus creates a child frame with a new focus.
func (f *Frame) focus(item xdm.Item, pos int64, last func() (int64, error)) *Frame {
	return &Frame{parent: f, dyn: f.dyn, id: -1,
		hasFocus: true, ctxItem: item, ctxPos: pos, ctxLast: last}
}

// lookup finds the value of variable id.
func (f *Frame) lookup(id int) *LazySeq {
	for p := f; p != nil; p = p.parent {
		if p.id == id {
			return p.val
		}
	}
	panic(fmt.Sprintf("runtime: unbound variable slot %d", id))
}

// focusFrame returns the innermost frame with a focus, or nil. Barrier
// frames (function-call boundaries) hide any outer focus.
func (f *Frame) focusFrame() *Frame {
	for p := f; p != nil; p = p.parent {
		if p.hasFocus {
			return p
		}
		if p.isBarrier {
			return nil
		}
	}
	return nil
}

// barrier creates a child frame that blocks focus lookup (the context item
// is undefined inside a function body).
func (f *Frame) barrier() *Frame {
	return &Frame{parent: f, dyn: f.dyn, id: -1, isBarrier: true}
}

// ---- functions.Context implementation ----

// ContextItem returns the focus item.
func (f *Frame) ContextItem() (xdm.Item, bool) {
	if ff := f.focusFrame(); ff != nil {
		return ff.ctxItem, true
	}
	return nil, false
}

// Position returns the focus position.
func (f *Frame) Position() int64 {
	if ff := f.focusFrame(); ff != nil {
		return ff.ctxPos
	}
	return 0
}

// Size returns the focus size, forcing materialization of the focus input
// if necessary.
func (f *Frame) Size() (int64, error) {
	ff := f.focusFrame()
	if ff == nil || ff.ctxLast == nil {
		return 0, xdm.Errf("XPDY0002", "fn:last(): no context")
	}
	return ff.ctxLast()
}

// Doc resolves a document URI. A pending streaming input resolves under its
// own URI (without consulting the registry); everything else goes through
// the resolver.
func (f *Frame) Doc(uri string) (xdm.Node, error) {
	if s := f.dyn.Stream; s != nil && uri == s.URI() {
		return s.docFor(f.dyn).RootNode(), nil
	}
	return f.dyn.resolver().Doc(uri)
}

// Collection resolves a collection URI.
func (f *Frame) Collection(uri string) (xdm.Sequence, error) {
	if seq, ok := f.dyn.Collections[uri]; ok {
		return seq, nil
	}
	return nil, xdm.Errf("FODC0004", "collection %q not found", uri)
}

// CurrentDateTime returns the stable evaluation dateTime.
func (f *Frame) CurrentDateTime() xdm.Atomic { return f.dyn.currentDateTime() }

// sortNodesDedup is a convenience wrapper over the data-model operation.
func sortNodesDedup(seq xdm.Sequence) (xdm.Sequence, error) {
	return xdm.SortDocOrderDedup(seq)
}

// mergeByDocOrder merges two sorted node sequences per the set operation.
func mergeByDocOrder(a, b xdm.Sequence, keepA, keepB, keepBoth bool) xdm.Sequence {
	var out xdm.Sequence
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		c := xdm.CompareOrder(a[i].(xdm.Node), b[j].(xdm.Node))
		switch {
		case c < 0:
			if keepA {
				out = append(out, a[i])
			}
			i++
		case c > 0:
			if keepB {
				out = append(out, b[j])
			}
			j++
		default:
			if keepBoth {
				out = append(out, a[i])
			}
			i++
			j++
		}
	}
	if keepA {
		out = append(out, a[i:]...)
	}
	if keepB {
		out = append(out, b[j:]...)
	}
	return out
}
