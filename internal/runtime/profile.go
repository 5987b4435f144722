package runtime

import (
	"strings"
	"sync/atomic"
	"time"

	"xqgo/internal/expr"
	"xqgo/internal/optimizer"
	"xqgo/internal/xdm"
)

// Execution profiling. Operators are tagged at compile time with stable ids
// and source positions; a Profile attached to a Dynamic collects per-operator
// counters plus engine-wide totals for one execution. Every plan has the
// hooks compiled in; with Dynamic.Prof == nil (the default) each operator
// instantiation pays one closure call plus one nil pointer check — nothing
// per pulled item.
//
// All counters are atomic: a shared Context may back concurrent executions
// of one plan, and morsel workers fold their shards into the parent.

// OpInfo identifies one tagged operator of a compiled plan. EstItems is the
// static per-instantiation cardinality estimate (optimizer.EstimateItems);
// a run whose cost model prices the operator reports that price instead.
type OpInfo struct {
	ID       int    `json:"id"`
	Kind     string `json:"kind"`
	Detail   string `json:"detail,omitempty"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	EstItems int64  `json:"estItems"`
	// Strategy is the compile-time join-strategy policy of a path operator
	// ("auto", "navigation", …); empty for non-path operators. The strategy
	// actually chosen at run time is reported per execution (OpReport).
	Strategy string `json:"strategy,omitempty"`
}

// opCounters are the per-operator statistics of one execution.
type opCounters struct {
	starts atomic.Int64 // iterator instantiations
	items  atomic.Int64 // items produced
	nanos  atomic.Int64 // cumulative wall time inside Next (timed mode only)
	// strat is the join strategy chosen this execution; 0 (StrategyAuto)
	// means none was resolved, since a resolved strategy is never Auto.
	strat atomic.Int32
	// est is the output the cost model priced the choice with, plus one;
	// 0 means the operator was not priced this execution.
	est atomic.Int64
}

// engineCounters are execution-wide totals maintained by engine internals.
type engineCounters struct {
	xmlTokens         atomic.Int64
	nodesMaterialized atomic.Int64
	memoHits          atomic.Int64
	memoMisses        atomic.Int64
	indexHits         atomic.Int64
	indexBuilds       atomic.Int64
	twigJoins         atomic.Int64
	interruptPolls    atomic.Int64

	// Plan choices resolved by join-eligible path operators this execution,
	// by winning strategy (once per operator × document, not per tuple).
	planNavigation atomic.Int64
	planTwigJoin   atomic.Int64

	// Ingestion counters (lazy/projected parsing, see internal/xmlparse).
	docNodesBuilt atomic.Int64
	nodesSkipped  atomic.Int64
	bytesParsed   atomic.Int64

	// Streaming-evaluator counters (internal/streamexec): windows opened by
	// the spine automaton, results emitted from windows, the buffer-byte
	// high-water mark across executions (a max, not a sum), and executions
	// that requested stream mode but fell back to the store engine.
	streamWindows    atomic.Int64
	streamResults    atomic.Int64
	streamBufferPeak atomic.Int64
	streamFallbacks  atomic.Int64
}

// Profile collects execution statistics for one execution of a Prepared
// query. Create one with Prepared.NewProfile and attach it to the Dynamic
// before executing; read it with Report afterwards. A Profile must not be
// reused across Prepared plans (operator ids are plan-specific), but may be
// shared by concurrent executions of the same plan to aggregate them.
type Profile struct {
	timed bool
	infos []OpInfo
	ops   []opCounters
	c     engineCounters
}

// NewProfile creates a profile sized for this plan's tagged operators. With
// timed set, every instrumented Next call is wall-clock timed (use for
// explain output); without, only counters are maintained (the cheap mode the
// service layer uses for always-on accounting). Per-operator times are
// inclusive: a FLWOR's time contains the time of the operators it pulls from.
func (p *Prepared) NewProfile(timed bool) *Profile {
	return &Profile{timed: timed, infos: p.ops, ops: make([]opCounters, len(p.ops))}
}

// instrument wraps an operator's iterator with counting (and, in timed mode,
// wall-clock timing). The wrapper passes a drain mark on to the operator.
func (p *Profile) instrument(id int, src Iter) Iter {
	op := &p.ops[id]
	op.starts.Add(1)
	return &profIter{op: op, src: src, timed: p.timed}
}

// profIter is the profiling wrapper around one operator instantiation.
type profIter struct {
	op    *opCounters
	src   Iter
	timed bool
}

func (p *profIter) Next() (xdm.Item, bool, error) {
	if !p.timed {
		it, ok, err := p.src.Next()
		if ok {
			p.op.items.Add(1)
		}
		return it, ok, err
	}
	t0 := time.Now()
	it, ok, err := p.src.Next()
	p.op.nanos.Add(int64(time.Since(t0)))
	if ok {
		p.op.items.Add(1)
	}
	return it, ok, err
}

// markDrain implements drainer.
func (p *profIter) markDrain() { markDrain(p.src) }

// The engine-counter adders below are nil-safe so call sites on the hot path
// stay a single method call guarding on the receiver.

func (p *Profile) addXMLTokens(n int64) {
	if p != nil {
		p.c.xmlTokens.Add(n)
	}
}

func (p *Profile) addNodesMaterialized(n int64) {
	if p != nil {
		p.c.nodesMaterialized.Add(n)
	}
}

func (p *Profile) addMemoHit() {
	if p != nil {
		p.c.memoHits.Add(1)
	}
}

func (p *Profile) addMemoMiss() {
	if p != nil {
		p.c.memoMisses.Add(1)
	}
}

func (p *Profile) addIndexHit() {
	if p != nil {
		p.c.indexHits.Add(1)
	}
}

func (p *Profile) addIndexBuild() {
	if p != nil {
		p.c.indexBuilds.Add(1)
	}
}

func (p *Profile) addTwigJoin() {
	if p != nil {
		p.c.twigJoins.Add(1)
	}
}

// notePlanChoice records the join strategy a path operator resolved to,
// and the output est the cost model priced it with (-1 when unpriced):
// once on the operator's row (for explain output) and once on the
// execution-wide per-strategy totals (for the /metrics counter).
func (p *Profile) notePlanChoice(id int, s optimizer.Strategy, est int64) {
	if p == nil {
		return
	}
	if id >= 0 && id < len(p.ops) {
		p.ops[id].strat.Store(int32(s))
		if est >= 0 {
			p.ops[id].est.Store(est + 1)
		}
	}
	switch s {
	case optimizer.StrategyNavigation:
		p.c.planNavigation.Add(1)
	case optimizer.StrategyTwigJoin:
		p.c.planTwigJoin.Add(1)
	}
}

func (p *Profile) addInterruptPoll() {
	if p != nil {
		p.c.interruptPolls.Add(1)
	}
}

func (p *Profile) addDocNodesBuilt(n int64) {
	if p != nil {
		p.c.docNodesBuilt.Add(n)
	}
}

func (p *Profile) addNodesSkipped(n int64) {
	if p != nil {
		p.c.nodesSkipped.Add(n)
	}
}

func (p *Profile) addBytesParsed(n int64) {
	if p != nil {
		p.c.bytesParsed.Add(n)
	}
}

// The stream-evaluator adders are exported: internal/streamexec maintains
// them from outside the package. All remain nil-safe.

// AddStreamWindows counts windows opened by the streaming evaluator.
func (p *Profile) AddStreamWindows(n int64) {
	if p != nil {
		p.c.streamWindows.Add(n)
	}
}

// AddStreamResults counts results emitted by the streaming evaluator.
func (p *Profile) AddStreamResults(n int64) {
	if p != nil {
		p.c.streamResults.Add(n)
	}
}

// NoteStreamBufferPeak raises the buffer-byte high-water mark (a max-merge:
// concurrent executions sharing a profile keep the largest peak).
func (p *Profile) NoteStreamBufferPeak(n int64) {
	if p == nil {
		return
	}
	for {
		cur := p.c.streamBufferPeak.Load()
		if n <= cur || p.c.streamBufferPeak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// AddStreamFallback counts a stream-mode execution that fell back to the
// store engine (store-required plan or unusable input).
func (p *Profile) AddStreamFallback() {
	if p != nil {
		p.c.streamFallbacks.Add(1)
	}
}

// AddXMLTokens counts serialized/parsed tokens from outside the package
// (streamexec batches its output-token accounting through this).
func (p *Profile) AddXMLTokens(n int64) { p.addXMLTokens(n) }

// shard creates a per-worker slice of this profile for morsel execution:
// the same operator table with private counter rows, so parallel workers
// never contend on the parent's cache lines. Fold the shard back with
// foldShard when the worker retires. Nil-safe: a nil profile shards to nil,
// keeping profiling free when off.
func (p *Profile) shard() *Profile {
	if p == nil {
		return nil
	}
	return &Profile{timed: p.timed, infos: p.infos, ops: make([]opCounters, len(p.ops))}
}

// foldShard folds a worker shard created by shard back into this profile.
// Unlike the cross-plan Merge, a shard shares this profile's plan and hence
// its operator ids, so operator rows add row-wise; engine-wide counters
// fold through Merge (which max-merges the stream buffer peak).
func (p *Profile) foldShard(sh *Profile) {
	if p == nil || sh == nil {
		return
	}
	for i := range sh.ops {
		o := &sh.ops[i]
		if v := o.starts.Load(); v != 0 {
			p.ops[i].starts.Add(v)
		}
		if v := o.items.Load(); v != 0 {
			p.ops[i].items.Add(v)
		}
		if v := o.nanos.Load(); v != 0 {
			p.ops[i].nanos.Add(v)
		}
		if v := o.strat.Load(); v != 0 {
			p.ops[i].strat.Store(v)
		}
		if v := o.est.Load(); v != 0 {
			p.ops[i].est.Store(v)
		}
	}
	p.Merge(sh.Report().Counters)
}

// Merge folds another execution's engine-wide counter totals into this
// profile. Operator rows cannot merge across profiles — operator ids are
// plan-specific — so only the CounterReport section transfers; the buffer
// peak is max-merged like NoteStreamBufferPeak. Use when a sub-execution
// (a streaming residual plan, a store-fallback subscription) profiled under
// its own plan-sized profile and its totals belong to the request's profile.
func (p *Profile) Merge(c CounterReport) {
	if p == nil {
		return
	}
	p.c.xmlTokens.Add(c.XMLTokens)
	p.c.nodesMaterialized.Add(c.NodesMaterialized)
	p.c.memoHits.Add(c.MemoHits)
	p.c.memoMisses.Add(c.MemoMisses)
	p.c.indexHits.Add(c.IndexHits)
	p.c.indexBuilds.Add(c.IndexBuilds)
	p.c.twigJoins.Add(c.TwigJoins)
	p.c.interruptPolls.Add(c.InterruptPolls)
	p.c.planNavigation.Add(c.PlanNavigation)
	p.c.planTwigJoin.Add(c.PlanTwigJoin)
	p.c.docNodesBuilt.Add(c.DocNodesBuilt)
	p.c.nodesSkipped.Add(c.NodesSkipped)
	p.c.bytesParsed.Add(c.BytesParsedOnDemand)
	p.c.streamWindows.Add(c.StreamWindows)
	p.c.streamResults.Add(c.StreamResults)
	p.c.streamFallbacks.Add(c.StreamFallbacks)
	p.NoteStreamBufferPeak(c.StreamBufferPeakBytes)
}

// OpReport is the per-operator row of a profile report. EstItems is the
// output the cost model priced this execution's strategy choice with, or
// for an unpriced operator the static estimate per instantiation; compare
// against Items/Starts for the observed mean.
type OpReport struct {
	ID       int    `json:"id"`
	Kind     string `json:"kind"`
	Detail   string `json:"detail,omitempty"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Starts   int64  `json:"starts"`
	Items    int64  `json:"items"`
	Nanos    int64  `json:"nanos,omitempty"`
	EstItems int64  `json:"estItems"`
	// Strategy is the join strategy this path operator resolved to during
	// the execution ("navigation", "twig-join"); empty for
	// operators that made no such choice.
	Strategy string `json:"strategy,omitempty"`
}

// CounterReport is the engine-wide counter section of a profile report.
type CounterReport struct {
	XMLTokens         int64 `json:"xmlTokens"`
	NodesMaterialized int64 `json:"nodesMaterialized"`
	MemoHits          int64 `json:"memoHits"`
	MemoMisses        int64 `json:"memoMisses"`
	IndexHits         int64 `json:"indexHits"`
	IndexBuilds       int64 `json:"indexBuilds"`
	TwigJoins         int64 `json:"twigJoins"`
	InterruptPolls    int64 `json:"interruptPolls"`
	// Plan choices resolved by join-eligible path operators, by winner.
	PlanNavigation int64 `json:"planNavigation"`
	PlanTwigJoin   int64 `json:"planTwigJoin"`
	// PlanBinaryJoin is always 0: the engine has no binary-join plan any
	// more. The field stays because the benchmark harness reads it.
	PlanBinaryJoin int64 `json:"planBinaryJoin"`
	// Ingestion: nodes appended to lazily parsed documents, nodes skipped
	// by projection (tokenized but never built), and input bytes pulled on
	// demand.
	DocNodesBuilt       int64 `json:"docNodesBuilt"`
	NodesSkipped        int64 `json:"nodesSkipped"`
	BytesParsedOnDemand int64 `json:"bytesParsedOnDemand"`
	// Streaming evaluator (internal/streamexec). StreamBufferPeakBytes is a
	// high-water mark, not a running total.
	StreamWindows         int64 `json:"streamWindows"`
	StreamResults         int64 `json:"streamResults"`
	StreamBufferPeakBytes int64 `json:"streamBufferPeakBytes"`
	StreamFallbacks       int64 `json:"streamFallbacks"`
}

// Add folds o into c: every counter is summed, the buffer peak is kept as
// the larger of the two.
func (c *CounterReport) Add(o CounterReport) {
	c.XMLTokens += o.XMLTokens
	c.NodesMaterialized += o.NodesMaterialized
	c.MemoHits += o.MemoHits
	c.MemoMisses += o.MemoMisses
	c.IndexHits += o.IndexHits
	c.IndexBuilds += o.IndexBuilds
	c.TwigJoins += o.TwigJoins
	c.InterruptPolls += o.InterruptPolls
	c.PlanNavigation += o.PlanNavigation
	c.PlanTwigJoin += o.PlanTwigJoin
	c.DocNodesBuilt += o.DocNodesBuilt
	c.NodesSkipped += o.NodesSkipped
	c.BytesParsedOnDemand += o.BytesParsedOnDemand
	c.StreamWindows += o.StreamWindows
	c.StreamResults += o.StreamResults
	c.StreamBufferPeakBytes = max(c.StreamBufferPeakBytes, o.StreamBufferPeakBytes)
	c.StreamFallbacks += o.StreamFallbacks
}

// Report is a point-in-time snapshot of a Profile.
type Report struct {
	Timed     bool          `json:"timed"`
	Operators []OpReport    `json:"operators"`
	Counters  CounterReport `json:"counters"`
}

// Report snapshots the profile. Only operators that actually started at
// least once are included; rows appear in compile (plan) order.
func (p *Profile) Report() Report {
	rep := Report{Timed: p.timed}
	for i := range p.ops {
		op := &p.ops[i]
		starts := op.starts.Load()
		if starts == 0 {
			continue
		}
		info := p.infos[i]
		row := OpReport{
			ID: info.ID, Kind: info.Kind, Detail: info.Detail,
			Line: info.Line, Col: info.Col,
			Starts: starts, Items: op.items.Load(), Nanos: op.nanos.Load(),
			EstItems: info.EstItems,
		}
		if s := op.strat.Load(); s != 0 {
			row.Strategy = optimizer.Strategy(s).String()
		}
		if v := op.est.Load(); v != 0 {
			row.EstItems = v - 1
		}
		rep.Operators = append(rep.Operators, row)
	}
	rep.Counters = CounterReport{
		XMLTokens:             p.c.xmlTokens.Load(),
		NodesMaterialized:     p.c.nodesMaterialized.Load(),
		MemoHits:              p.c.memoHits.Load(),
		MemoMisses:            p.c.memoMisses.Load(),
		IndexHits:             p.c.indexHits.Load(),
		IndexBuilds:           p.c.indexBuilds.Load(),
		TwigJoins:             p.c.twigJoins.Load(),
		InterruptPolls:        p.c.interruptPolls.Load(),
		PlanNavigation:        p.c.planNavigation.Load(),
		PlanTwigJoin:          p.c.planTwigJoin.Load(),
		DocNodesBuilt:         p.c.docNodesBuilt.Load(),
		NodesSkipped:          p.c.nodesSkipped.Load(),
		BytesParsedOnDemand:   p.c.bytesParsed.Load(),
		StreamWindows:         p.c.streamWindows.Load(),
		StreamResults:         p.c.streamResults.Load(),
		StreamBufferPeakBytes: p.c.streamBufferPeak.Load(),
		StreamFallbacks:       p.c.streamFallbacks.Load(),
	}
	return rep
}

// Operators returns the plan's tagged operator inventory.
func (p *Prepared) Operators() []OpInfo { return p.ops }

// tag registers an operator under a stable id and wraps its compiled form
// with the profiling hook.
func (c *compiler) tag(kind string, e expr.Expr, fn seqFn) seqFn {
	fn, _ = c.tagID(kind, e, fn)
	return fn
}

// tagID is tag, additionally returning the allocated operator id. Path
// compilation uses the id to key the cardinality-feedback cache and to
// attribute plan choices to the row.
func (c *compiler) tagID(kind string, e expr.Expr, fn seqFn) (seqFn, int) {
	id := len(c.ops)
	pos := e.Span()
	c.ops = append(c.ops, OpInfo{
		ID: id, Kind: kind, Detail: exprSummary(e), Line: pos.Line, Col: pos.Col,
		EstItems: optimizer.EstimateItems(e),
	})
	c.opExpr = append(c.opExpr, e)
	return func(fr *Frame) Iter {
		p := fr.dyn.Prof
		if p == nil {
			return fn(fr)
		}
		return p.instrument(id, fn(fr))
	}, id
}

// tagScalar is tag for an operator with a scalar form, a condition or an
// integer: one id serves both forms. The sequence form is instrumented as
// tag does and boxes the value with item; the scalar form counts the same
// start, and the one item a successful evaluation yields, without building
// an iterator.
func tagScalar[T any](c *compiler, kind string, e expr.Expr, f func(*Frame) (T, error), item func(T) xdm.Item) (func(*Frame) (T, error), seqFn) {
	seq, id := c.tagID(kind, e, func(fr *Frame) Iter {
		v, err := f(fr)
		if err != nil {
			return errIter(err)
		}
		return singleIter(item(v))
	})
	return func(fr *Frame) (T, error) {
		v, err := f(fr)
		if p := fr.dyn.Prof; p != nil {
			p.ops[id].starts.Add(1)
			if err == nil {
				p.ops[id].items.Add(1)
			}
		}
		return v, err
	}, seq
}

// exprSummary renders a compact single-line summary of an expression for
// operator rows and rewrite traces.
func exprSummary(e expr.Expr) string {
	s := strings.Join(strings.Fields(expr.String(e)), " ")
	if r := []rune(s); len(r) > 60 {
		s = string(r[:57]) + "..."
	}
	return s
}
