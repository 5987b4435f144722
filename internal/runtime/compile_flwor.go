package runtime

import (
	"xqgo/internal/expr"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// FLWOR evaluation. Without order-by the whole expression is a lazy nested-
// loop pipeline over binding tuples (frames); with order-by the tuples are
// materialized, sorted by the key values, and the return clause streams per
// sorted tuple.

// tupleIter yields binding frames.
type tupleIter func() (*Frame, bool, error)

// tupleSrc is a tuple stream with both pull granularities: next yields one
// binding frame (the exact lazy semantics), batch fills a frame buffer
// under the same contract as BatchIter.NextBatch (0 with nil error = end,
// a short batch does not signal the end, frames before an error are valid).
// Only drain-everything consumers (a batch-pulled return clause, order-by
// materialization) use batch; quantifiers and item-driven FLWORs stay on
// next, preserving early exit.
type tupleSrc struct {
	next  tupleIter
	batch func(buf []*Frame) (int, error)
}

// tupleSrcFrom wraps an item-granularity tuple stream, deriving the batch
// side generically.
func tupleSrcFrom(next tupleIter) tupleSrc {
	return tupleSrc{next: next, batch: func(buf []*Frame) (int, error) {
		n := 0
		for n < len(buf) {
			t, ok, err := next()
			if err != nil {
				return n, err
			}
			if !ok {
				break
			}
			buf[n] = t
			n++
		}
		return n, nil
	}}
}

type compiledClause struct {
	kind  expr.ClauseKind
	varID int
	posID int // -1 when absent
	typ   *xtypes.SequenceType
	in    seqFn
}

func (c *compiler) compileFlwor(n *expr.Flwor) (seqFn, error) {
	c.pushScope()
	defer c.popScope()

	clauses := make([]compiledClause, 0, len(n.Clauses))
	for _, cl := range n.Clauses {
		in, err := c.compile(cl.In)
		if err != nil {
			return nil, err
		}
		cc := compiledClause{kind: cl.Kind, in: in, posID: -1, typ: cl.Type}
		cc.varID = c.declare(cl.Var)
		if !cl.PosVar.IsZero() {
			cc.posID = c.declare(cl.PosVar)
		}
		clauses = append(clauses, cc)
	}
	var whereFn seqFn
	if n.Where != nil {
		fn, err := c.compile(n.Where)
		if err != nil {
			return nil, err
		}
		whereFn = fn
	}
	// Group-by: keys see the clause variables; the group variables come
	// into scope for order-by and return. All clause-bound variables
	// (including positional ones) are rebound per group.
	var groupSpecs []groupSpec
	var rebindIDs []int
	if len(n.Group) > 0 {
		for _, cc := range clauses {
			rebindIDs = append(rebindIDs, cc.varID)
			if cc.posID >= 0 {
				rebindIDs = append(rebindIDs, cc.posID)
			}
		}
		for _, g := range n.Group {
			key, err := c.compile(g.Key)
			if err != nil {
				return nil, err
			}
			groupSpecs = append(groupSpecs, groupSpec{varID: c.declare(g.Var), key: key})
		}
	}
	type orderKey struct {
		key        seqFn
		descending bool
		emptyLeast bool
	}
	var orderKeys []orderKey
	for _, o := range n.Order {
		fn, err := c.compile(o.Key)
		if err != nil {
			return nil, err
		}
		orderKeys = append(orderKeys, orderKey{fn, o.Descending, o.EmptyLeast})
	}
	retFn, err := c.compile(n.Ret)
	if err != nil {
		return nil, err
	}

	makeTuples := func(fr *Frame, withWhere bool) tupleSrc {
		tuples := baseTuple(fr)
		for i := range clauses {
			tuples = applyClause(tuples, &clauses[i])
		}
		if whereFn != nil && withWhere {
			tuples = filterTuples(tuples, whereFn)
		}
		if len(groupSpecs) > 0 {
			// Grouping materializes every tuple anyway, so it may consume
			// its input in batches.
			tuples = tupleSrcFrom(applyGrouping(batchedTuplePull(tuples), fr, groupSpecs, rebindIDs))
		}
		return tuples
	}

	if len(orderKeys) == 0 {
		// Morsel eligibility (see morsel.go): order-preserving for/where
		// pipelines whose where and return clauses are context-free and call
		// no user functions (a function body may lazily force a shared
		// global) can evaluate tuples on the worker pool. Referenced outer
		// and let bindings are forced on the pulling goroutine first — the
		// error-timing caveat of parallel.go applies. The where clause moves
		// out of the tuple source so workers apply it per tuple. A let-only
		// FLWOR has a single tuple: nothing to split, and a round would pin
		// its whole return clause to one worker.
		hasFor := false
		for _, cc := range clauses {
			hasFor = hasFor || cc.kind == expr.ForClause
		}
		parSafe := hasFor && len(groupSpecs) == 0 &&
			!expr.UsesContext(n.Ret) && !c.hasUserCall(n.Ret) &&
			(n.Where == nil || (!expr.UsesContext(n.Where) && !c.hasUserCall(n.Where)))
		var outerForce, letForce []int
		if parSafe {
			outerForce, letForce = c.flworForceSets(n, clauses)
		}
		fn := func(fr *Frame) Iter {
			if parSafe && fr.dyn.Workers > 1 {
				return &flworIter{tuples: makeTuples(fr, false), retFn: retFn, whereFn: whereFn,
					par: &flworMorsel{fr: fr, outerForce: outerForce, letForce: letForce}}
			}
			return &flworIter{tuples: makeTuples(fr, true), retFn: retFn}
		}
		return c.tag("flwor", n, fn), nil
	}

	// Order-by path: materialize tuples and their keys.
	fn := func(fr *Frame) Iter {
		pull := batchedTuplePull(makeTuples(fr, true))
		type sortable struct {
			frame *Frame
			keys  []*xdm.Atomic // nil pointer = empty key
		}
		var rows []sortable
		for {
			t, ok, err := pull()
			if err != nil {
				return errIter(err)
			}
			if !ok {
				break
			}
			row := sortable{frame: t}
			for _, ok := range orderKeys {
				a, present, err := atomizeSingle(ok.key(t))
				if err != nil {
					return errIter(err)
				}
				if present {
					if a.T == xdm.TUntyped {
						a = xdm.NewString(a.S)
					}
					av := a
					row.keys = append(row.keys, &av)
				} else {
					row.keys = append(row.keys, nil)
				}
			}
			rows = append(rows, row)
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		var sortErr error
		stableSortInts(idx, func(a, b int) bool {
			if sortErr != nil {
				return false
			}
			for k := range orderKeys {
				ka, kb := rows[a].keys[k], rows[b].keys[k]
				cmp, err := compareKeys(ka, kb, orderKeys[k].emptyLeast)
				if err != nil {
					sortErr = err
					return false
				}
				if cmp == 0 {
					continue
				}
				if orderKeys[k].descending {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
		if sortErr != nil {
			return errIter(sortErr)
		}
		// Stream the return clause per sorted tuple, reusing the dual-
		// granularity FLWOR iterator over the sorted row stream.
		pos := 0
		sorted := func() (*Frame, bool, error) {
			if pos >= len(idx) {
				return nil, false, nil
			}
			t := rows[idx[pos]].frame
			pos++
			return t, true, nil
		}
		return &flworIter{tuples: tupleSrcFrom(sorted), retFn: retFn}
	}
	return c.tag("flwor", n, fn), nil
}

// hasUserCall reports whether e contains a call to a user-declared
// function. Bodies of user functions may lazily force shared bindings
// (globals, memoized arguments), which morsel workers must not race on, so
// such expressions keep the FLWOR sequential.
func (c *compiler) hasUserCall(e expr.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	expr.Walk(e, func(x expr.Expr) bool {
		if found {
			return false
		}
		if call, ok := x.(*expr.Call); ok {
			if _, isUser := c.funcs[funcKey(call.Name, len(call.Args))]; isUser {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// flworForceSets classifies the variables the where/return clauses read,
// for a morsel-parallel FLWOR: letForce are this FLWOR's own let bindings
// (their shared LazySeq must be forced per tuple on the pulling goroutine —
// two workers forcing one lazily would race; anything the let's input reads
// is in turn forced inside that same caller-side evaluation, so no closure
// is needed), outerForce are bindings from outside the FLWOR, forced once
// before the first round. For-clause and positional variables are
// materialized per tuple already and need no forcing. Let bindings nothing
// references are never forced, preserving lazy skipping of erroring
// dead bindings.
func (c *compiler) flworForceSets(n *expr.Flwor, clauses []compiledClause) (outer, lets []int) {
	declared := map[int]bool{}
	isLet := map[int]bool{}
	for i, cc := range clauses {
		declared[cc.varID] = true
		if cc.posID >= 0 {
			declared[cc.posID] = true
		}
		if n.Clauses[i].Kind == expr.LetClause {
			isLet[cc.varID] = true
		}
	}
	refs := expr.FreeVars(n.Ret)
	if n.Where != nil {
		for name := range expr.FreeVars(n.Where) {
			refs[name] = true
		}
	}
	seen := map[int]bool{}
	for name := range refs {
		id, ok := c.resolve(xdm.ParseClark(name))
		if !ok || seen[id] {
			continue
		}
		seen[id] = true
		switch {
		case isLet[id]:
			lets = append(lets, id)
		case !declared[id]:
			outer = append(outer, id)
		}
	}
	return outer, lets
}

// flworIter streams the return clause over a tuple stream. Item pulls stay
// strictly lazy (one tuple advanced at a time); batch pulls prefetch a
// batch of tuples and forward the batch demand into the return clause. A
// tuple-stream error discovered while prefetching is held back until the
// return results of the already-prefetched tuples have been delivered, so
// the error surfaced matches item-at-a-time order.
type flworIter struct {
	tuples tupleSrc
	retFn  seqFn

	// whereFn is set only on a morsel-parallel FLWOR: the filter moves out
	// of the tuple source so workers can apply it per tuple; item-granular
	// pulls apply it in nextTuple. par holds the parallel round state; nil
	// means fully sequential (whereFn is then inside tuples already).
	whereFn seqFn
	par     *flworMorsel

	cur     Iter
	pending []*Frame
	pi, pn  int
	stash   error
	tdone   bool
}

// nextTuple yields the next tuple that passes the where clause (when the
// filter lives at this level; see whereFn).
func (f *flworIter) nextTuple(batched bool) (*Frame, bool, error) {
	for {
		t, ok, err := f.rawTuple(batched)
		if err != nil || !ok {
			return nil, false, err
		}
		if f.whereFn != nil {
			keep, kerr := ebvOf(f.whereFn(t))
			if kerr != nil {
				return nil, false, kerr
			}
			if !keep {
				continue
			}
		}
		return t, true, nil
	}
}

// rawTuple yields the next tuple from the source, unfiltered.
func (f *flworIter) rawTuple(batched bool) (*Frame, bool, error) {
	for {
		if f.pi < f.pn {
			t := f.pending[f.pi]
			f.pending[f.pi] = nil
			f.pi++
			return t, true, nil
		}
		if f.stash != nil {
			err := f.stash
			f.stash = nil
			f.tdone = true
			return nil, false, err
		}
		if f.tdone {
			return nil, false, nil
		}
		if !batched {
			t, ok, err := f.tuples.next()
			if err != nil || !ok {
				f.tdone = true
				return nil, false, err
			}
			return t, true, nil
		}
		if f.pending == nil {
			f.pending = make([]*Frame, batchSize)
		}
		n, err := f.tuples.batch(f.pending)
		f.pi, f.pn = 0, n
		if err != nil {
			f.stash = err
		} else if n == 0 {
			f.tdone = true
		}
	}
}

func (f *flworIter) Next() (xdm.Item, bool, error) {
	for {
		if f.cur == nil {
			t, ok, err := f.nextTuple(false)
			if err != nil || !ok {
				return nil, false, err
			}
			f.cur = f.retFn(t)
		}
		it, ok, err := f.cur.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return it, true, nil
		}
		f.cur = nil
	}
}

// NextBatch implements BatchIter. With parallel round state attached, the
// fill first tries a morsel round; handled=false (no workers available, a
// return iterator already open, or a still-parsing streamed input) falls
// through to the sequential fill for this pull.
func (f *flworIter) NextBatch(buf []xdm.Item) (int, error) {
	if f.par != nil {
		if n, err, handled := f.par.nextBatch(f, buf); handled {
			return n, err
		}
	}
	n := 0
	for n < len(buf) {
		if f.cur == nil {
			t, ok, err := f.nextTuple(true)
			if err != nil {
				return n, err
			}
			if !ok {
				return n, nil
			}
			f.cur = f.retFn(t)
		}
		k, err := nextBatch(f.cur, buf[n:])
		n += k
		if err != nil {
			return n, err
		}
		if k == 0 {
			f.cur = nil
		}
	}
	return n, nil
}

// flworMorsel is the parallel-round state of a morsel-eligible FLWOR: the
// pulling goroutine gathers a round of raw tuples (forcing the let and
// outer bindings workers will read — see flworForceSets), worker forks
// evaluate where+return per tuple chunk, and chunk outputs stitch back in
// tuple order, preserving the sequential result order exactly.
type flworMorsel struct {
	fr         *Frame
	outerForce []int // bindings outside the FLWOR; forced once, first round
	letForce   []int // the FLWOR's own referenced lets; forced per tuple
	forced     bool

	out      []xdm.Item // pending stitched output of the last round
	oi       int
	roundErr error // held until the round's outputs have been delivered
	done     bool
}

// nextBatch serves the parallel side of flworIter.NextBatch; handled=false
// defers this pull to the sequential fill.
func (m *flworMorsel) nextBatch(f *flworIter, buf []xdm.Item) (int, error, bool) {
	for {
		if m.oi < len(m.out) {
			n := copy(buf, m.out[m.oi:])
			m.oi += n
			if m.oi >= len(m.out) {
				m.out, m.oi = nil, 0
			}
			return n, nil, true
		}
		if m.roundErr != nil {
			err := m.roundErr
			m.roundErr = nil
			m.done = true
			return 0, err, true
		}
		if m.done || f.cur != nil || m.fr.dyn.streamingLazy() {
			return 0, nil, false
		}
		ran, err := m.runRound(f)
		if err != nil {
			m.done = true
			return 0, err, true
		}
		if !ran {
			return 0, nil, false
		}
		// Loop: serve the round's output, or run another round if it
		// produced nothing (all tuples where-filtered).
	}
}

// runRound gathers and evaluates one parallel round. ran=false (without
// error) means no extra workers were available or the tuple source is
// exhausted; the caller falls back to the sequential fill.
func (m *flworMorsel) runRound(f *flworIter) (bool, error) {
	d := m.fr.dyn
	extra, release := d.leaseExtra(d.Workers - 1)
	if extra == 0 {
		return false, nil
	}
	defer release()
	if !m.forced {
		for _, id := range m.outerForce {
			if _, err := m.fr.lookup(id).All(); err != nil {
				return false, err
			}
		}
		m.forced = true
	}
	// Gather raw tuples on the puller, forcing referenced let bindings so
	// workers only read materialized values. A source or forcing error is
	// stashed until the outputs of the tuples gathered before it deliver,
	// matching item-at-a-time error order.
	roundTuples := (extra + 1) * flworRoundChunks * flworMorselTuples
	// A round's gathered tuple frames are retained only until its outputs
	// are stitched, so their footprint is bracketed: charged here, returned
	// when the round ends.
	roundBytes := int64(roundTuples) * flworTupleEstBytes
	if err := d.Budget.Charge(roundBytes); err != nil {
		return false, err
	}
	defer d.Budget.Discharge(roundBytes)
	round := make([]*Frame, 0, roundTuples)
	var terr error
gather:
	for len(round) < roundTuples {
		t, ok, err := f.rawTuple(true)
		if err != nil {
			terr = err
			break
		}
		if !ok {
			break
		}
		for _, id := range m.letForce {
			if _, err := t.lookup(id).All(); err != nil {
				terr = err
				break gather
			}
		}
		round = append(round, t)
	}
	if len(round) == 0 {
		if terr != nil {
			m.roundErr = terr
			return true, nil
		}
		m.done = true
		return true, nil
	}
	chunks := (len(round) + flworMorselTuples - 1) / flworMorselTuples
	parts, rerr := morselRound(d, extra, chunks, func(w *Dynamic, i int) (xdm.Sequence, error) {
		lo := i * flworMorselTuples
		hi := lo + flworMorselTuples
		if hi > len(round) {
			hi = len(round)
		}
		var out xdm.Sequence
		for _, t := range round[lo:hi] {
			seq, err := evalFlworTuple(w, f, t)
			if err != nil {
				return nil, err
			}
			out = append(out, seq...)
			if err := w.CheckInterruptN(len(seq) + 1); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	if rerr != nil {
		// A chunk failed. Group cancellation may have replaced the error
		// sequential evaluation would surface first, so replay this round's
		// saved tuples on the puller: the outputs before the first failing
		// tuple deliver, then its error — deterministic, item-order exact.
		var replay xdm.Sequence
		m.roundErr = nil
		for _, t := range round {
			seq, err := evalFlworTuple(d, f, t)
			if err != nil {
				m.roundErr = err
				break
			}
			replay = append(replay, seq...)
		}
		if m.roundErr == nil {
			// The parallel failure did not reproduce sequentially (a
			// transient interrupt): keep the replayed outputs and continue
			// with any error the gather stashed.
			m.roundErr = terr
		}
		m.out, m.oi = replay, 0
		return true, nil
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]xdm.Item, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	m.out, m.oi = out, 0
	m.roundErr = terr
	return true, nil
}

// evalFlworTuple applies the where clause and drains the return clause for
// one tuple under a specific worker context.
func evalFlworTuple(w *Dynamic, f *flworIter, t *Frame) (xdm.Sequence, error) {
	t2 := t.withDyn(w)
	if f.whereFn != nil {
		keep, err := ebvOf(f.whereFn(t2))
		if err != nil || !keep {
			return nil, err
		}
	}
	return drainBatched(w, f.retFn(t2))
}

// batchedTuplePull adapts a tupleSrc's batch side to one-at-a-time
// delivery for materializing consumers (the order-by row loop): tuples are
// prefetched a batch at a time, with upstream errors held back until the
// prefetched tuples are consumed.
func batchedTuplePull(src tupleSrc) tupleIter {
	var pending []*Frame
	pi, pn := 0, 0
	var stash error
	done := false
	return func() (*Frame, bool, error) {
		for {
			if pi < pn {
				t := pending[pi]
				pending[pi] = nil
				pi++
				return t, true, nil
			}
			if stash != nil {
				err := stash
				stash = nil
				done = true
				return nil, false, err
			}
			if done {
				return nil, false, nil
			}
			if pending == nil {
				pending = make([]*Frame, batchSize)
			}
			n, err := src.batch(pending)
			pi, pn = 0, n
			if err != nil {
				stash = err
			} else if n == 0 {
				done = true
			}
		}
	}
}

// compareKeys orders two order-by keys; empty sequences order per
// empty-least/greatest.
func compareKeys(a, b *xdm.Atomic, emptyLeast bool) (int, error) {
	if a == nil && b == nil {
		return 0, nil
	}
	if a == nil {
		if emptyLeast {
			return -1, nil
		}
		return 1, nil
	}
	if b == nil {
		if emptyLeast {
			return 1, nil
		}
		return -1, nil
	}
	cmp, nan, err := xdm.OrderCompare(*a, *b)
	if err != nil {
		return 0, err
	}
	if nan {
		return 0, nil // NaN treated as equal for ordering stability
	}
	return cmp, nil
}

// stableSortInts is an insertion-based stable sort over an index slice
// (rows are typically modest; order-by over huge results materializes
// anyway). For large inputs it falls back to a merge sort.
func stableSortInts(idx []int, less func(a, b int) bool) {
	if len(idx) < 32 {
		for i := 1; i < len(idx); i++ {
			for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		return
	}
	mid := len(idx) / 2
	left := append([]int(nil), idx[:mid]...)
	right := append([]int(nil), idx[mid:]...)
	stableSortInts(left, less)
	stableSortInts(right, less)
	i, j, k := 0, 0, 0
	for i < len(left) && j < len(right) {
		if less(right[j], left[i]) {
			idx[k] = right[j]
			j++
		} else {
			idx[k] = left[i]
			i++
		}
		k++
	}
	for i < len(left) {
		idx[k] = left[i]
		i++
		k++
	}
	for j < len(right) {
		idx[k] = right[j]
		j++
		k++
	}
}

// baseTuple yields the initial single tuple (the enclosing frame).
func baseTuple(fr *Frame) tupleSrc {
	done := false
	return tupleSrcFrom(func() (*Frame, bool, error) {
		if done {
			return nil, false, nil
		}
		done = true
		return fr, true, nil
	})
}

// applyClause extends a tuple stream with one for/let clause.
func applyClause(tuples tupleSrc, cl *compiledClause) tupleSrc {
	if cl.kind == expr.LetClause {
		// Lazy binding: the clause input is not evaluated until the
		// variable is first used, and then memoized — in both granularities.
		bind := func(t *Frame) *Frame { return t.bind(cl.varID, NewLazySeq(cl.in(t))) }
		return tupleSrc{
			next: func() (*Frame, bool, error) {
				t, ok, err := tuples.next()
				if err != nil || !ok {
					return nil, false, err
				}
				return bind(t), true, nil
			},
			batch: func(buf []*Frame) (int, error) {
				n, err := tuples.batch(buf)
				for i := 0; i < n; i++ {
					buf[i] = bind(buf[i])
				}
				return n, err
			},
		}
	}
	// for-clause: one tuple per item of the input sequence. The item and
	// batch sides share the cursor state, so the granularities may be mixed
	// by a consumer without skipping or repeating tuples.
	f := &forClauseState{tuples: tuples, cl: cl}
	return tupleSrc{next: f.next, batch: f.batch}
}

// forClauseState is the shared cursor of one for-clause: the current outer
// tuple and the current position within its input sequence.
type forClauseState struct {
	tuples  tupleSrc
	cl      *compiledClause
	outer   *Frame
	inner   Iter
	pos     int64
	scratch []xdm.Item // staging for batch pulls of the clause input
}

// bindTuple builds the output tuple for one item of the clause input.
func (f *forClauseState) bindTuple(it xdm.Item) (*Frame, error) {
	f.pos++
	if f.cl.typ != nil && !f.cl.typ.Item.MatchesItem(it) {
		return nil, xdm.ErrType("for-variable item does not match %s", *f.cl.typ)
	}
	// The tuple's frame, its one-item sequence and that item's slot are one
	// allocation: a for clause binds a tuple per input item.
	t := &struct {
		fr   Frame
		seq  LazySeq
		item [1]xdm.Item
	}{}
	t.item[0] = it
	t.seq.items = t.item[:]
	t.fr = Frame{parent: f.outer, dyn: f.outer.dyn, id: f.cl.varID, val: &t.seq}
	fr := &t.fr
	if f.cl.posID >= 0 {
		fr = fr.bind(f.cl.posID, MaterializedSeq(xdm.Sequence{xdm.NewInteger(f.pos)}))
	}
	return fr, nil
}

// advanceOuter moves to the next outer tuple; ok=false at the end.
func (f *forClauseState) advanceOuter() (bool, error) {
	t, ok, err := f.tuples.next()
	if err != nil || !ok {
		return false, err
	}
	f.outer = t
	f.inner = f.cl.in(t)
	f.pos = 0
	return true, nil
}

func (f *forClauseState) next() (*Frame, bool, error) {
	for {
		if f.inner == nil {
			ok, err := f.advanceOuter()
			if err != nil || !ok {
				return nil, false, err
			}
		}
		if err := f.outer.dyn.CheckInterrupt(); err != nil {
			return nil, false, err
		}
		it, ok, err := f.inner.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			f.inner = nil
			continue
		}
		fr, err := f.bindTuple(it)
		if err != nil {
			return nil, false, err
		}
		return fr, true, nil
	}
}

func (f *forClauseState) batch(buf []*Frame) (int, error) {
	n := 0
	for n < len(buf) {
		if f.inner == nil {
			ok, err := f.advanceOuter()
			if err != nil {
				return n, err
			}
			if !ok {
				return n, nil
			}
		}
		if f.scratch == nil {
			f.scratch = f.outer.dyn.getBuf()
		}
		in := f.scratch
		if r := len(buf) - n; r < len(in) {
			in = in[:r]
		}
		k, err := nextBatch(f.inner, in)
		for i := 0; i < k; i++ {
			fr, berr := f.bindTuple(in[i])
			if berr != nil {
				return n, berr
			}
			buf[n] = fr
			n++
		}
		if err != nil {
			return n, err
		}
		if k == 0 {
			f.inner = nil
		}
	}
	if err := f.outer.dyn.CheckInterruptN(n); err != nil {
		return n, err
	}
	return n, nil
}

// filterTuples applies the where clause by effective boolean value.
func filterTuples(tuples tupleSrc, whereFn seqFn) tupleSrc {
	return tupleSrc{
		next: func() (*Frame, bool, error) {
			for {
				t, ok, err := tuples.next()
				if err != nil || !ok {
					return nil, false, err
				}
				keep, err := ebvOf(whereFn(t))
				if err != nil {
					return nil, false, err
				}
				if keep {
					return t, true, nil
				}
			}
		},
		batch: func(buf []*Frame) (int, error) {
			for {
				k, err := tuples.batch(buf)
				n := 0
				for i := 0; i < k; i++ {
					keep, kerr := ebvOf(whereFn(buf[i]))
					if kerr != nil {
						return n, kerr
					}
					if keep {
						buf[n] = buf[i]
						n++
					}
				}
				if err != nil || k == 0 || n > 0 {
					return n, err
				}
				// Whole batch filtered out: pull again (n == 0 would
				// wrongly signal the end).
			}
		},
	}
}

func (c *compiler) compileQuantified(n *expr.Quantified) (seqFn, error) {
	c.pushScope()
	defer c.popScope()

	type qbind struct {
		id int
		in seqFn
	}
	binds := make([]qbind, 0, len(n.Binds))
	for _, b := range n.Binds {
		in, err := c.compile(b.In)
		if err != nil {
			return nil, err
		}
		binds = append(binds, qbind{id: c.declare(b.Var), in: in})
	}
	satFn, err := c.compile(n.Satisfies)
	if err != nil {
		return nil, err
	}
	every := n.Every
	fn := func(fr *Frame) Iter {
		tuples := baseTuple(fr)
		for i := range binds {
			cl := compiledClause{kind: expr.ForClause, varID: binds[i].id, posID: -1, in: binds[i].in}
			tuples = applyClauseQ(tuples, cl)
		}
		// Quantifiers pull tuples one at a time on purpose: early exit is
		// the lazy-evaluation payoff, and batch prefetch would evaluate
		// bindings past the deciding one.
		for {
			t, ok, err := tuples.next()
			if err != nil {
				return errIter(err)
			}
			if !ok {
				// every: vacuously true; some: false
				return singleIter(xdm.NewBoolean(every))
			}
			sat, err := ebvOf(satFn(t))
			if err != nil {
				return errIter(err)
			}
			if sat && !every {
				return singleIter(xdm.True) // early exit: lazy evaluation win
			}
			if !sat && every {
				return singleIter(xdm.False)
			}
		}
	}
	return c.tag("quantified", n, fn), nil
}

// applyClauseQ is applyClause for a value clause (quantifiers have no
// positional variables or type checks).
func applyClauseQ(tuples tupleSrc, cl compiledClause) tupleSrc {
	clCopy := cl
	return applyClause(tuples, &clCopy)
}
