package runtime

import (
	"sort"

	"xqgo/internal/expr"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// FLWOR evaluation. Without order-by the whole expression is a lazy nested-
// loop pipeline over binding tuples (frames); with order-by the tuples are
// materialized, sorted by the key values, and the return clause streams per
// sorted tuple.

// tupleIter yields binding frames, one per pull. A tuple stream carries no
// drain mark: quantifiers and item-driven FLWORs pull it lazily, and a
// drained FLWOR marks its return clause instead.
type tupleIter func() (*Frame, bool, error)

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
	var where condFn
	if n.Where != nil {
		cond, err := c.compileCond(n.Where)
		if err != nil {
			return nil, err
		}
		where = cond
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
		key        operand
		descending bool
		emptyLeast bool
	}
	var orderKeys []orderKey
	for _, o := range n.Order {
		key, err := c.compileOperand(o.Key)
		if err != nil {
			return nil, err
		}
		orderKeys = append(orderKeys, orderKey{key, o.Descending, o.EmptyLeast})
	}
	retFn, err := c.compile(n.Ret)
	if err != nil {
		return nil, err
	}

	// The last for clause recycles its tuple frames where nothing keeps a
	// tuple past the next pull: not under order by or group by, which keep
	// every tuple, nor in morsel rounds, which gather many (see Frame.pin).
	// Earlier for clauses bind heap frames.
	lastFor := -1
	for i, cc := range clauses {
		if cc.kind == expr.ForClause {
			lastFor = i
		}
	}
	makeTuples := func(fr *Frame, withWhere, recycle bool) tupleIter {
		tuples := baseTuple(fr)
		for i := range clauses {
			tuples = applyClause(tuples, &clauses[i], recycle && i == lastFor)
		}
		if where != nil && withWhere {
			tuples = filterTuples(tuples, where)
		}
		if len(groupSpecs) > 0 {
			tuples = applyGrouping(tuples, fr, groupSpecs, rebindIDs)
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
				return &flworIter{tuples: makeTuples(fr, false, false), retFn: retFn, where: where,
					par: &flworMorsel{fr: fr, outerForce: outerForce, letForce: letForce}}
			}
			return &flworIter{tuples: makeTuples(fr, true, len(groupSpecs) == 0), retFn: retFn}
		}
		return c.tag("flwor", n, fn), nil
	}

	// Order-by path: materialize tuples and their keys.
	fn := func(fr *Frame) Iter {
		pull := makeTuples(fr, true, false)
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
				a, present, err := ok.key.single(t)
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
		sort.SliceStable(idx, func(i, j int) bool {
			if sortErr != nil {
				return false
			}
			for k := range orderKeys {
				ka, kb := rows[idx[i]].keys[k], rows[idx[j]].keys[k]
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
		// Stream the return clause per sorted tuple, reusing the FLWOR
		// iterator over the sorted row stream.
		pos := 0
		sorted := func() (*Frame, bool, error) {
			if pos >= len(idx) {
				return nil, false, nil
			}
			t := rows[idx[pos]].frame
			pos++
			return t, true, nil
		}
		return &flworIter{tuples: sorted, retFn: retFn}
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
// the first round has gathered a tuple. For-clause and positional variables are
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

// flworIter streams the return clause over a tuple stream, one tuple
// advanced at a time. A drain mark reaches each return-clause iterator, and
// lets a morsel-eligible FLWOR run parallel rounds.
type flworIter struct {
	tuples tupleIter
	retFn  seqFn

	// where is set only on a morsel-parallel FLWOR: the filter moves out
	// of the tuple source so workers can apply it per tuple; sequential
	// pulls apply it in nextTuple. par holds the parallel round state; nil
	// means fully sequential (where is then inside tuples already).
	where condFn
	par   *flworMorsel

	cur   Iter
	drain bool
}

// nextTuple yields the next tuple that passes the where clause (when the
// filter lives at this level; see where).
func (f *flworIter) nextTuple() (*Frame, bool, error) {
	for {
		t, ok, err := f.tuples()
		if err != nil || !ok {
			return nil, false, err
		}
		if f.where != nil {
			keep, kerr := f.where(t)
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

func (f *flworIter) Next() (xdm.Item, bool, error) {
	if f.drain && f.par != nil {
		if it, ok, err, handled := f.par.next(f); handled {
			return it, ok, err
		}
	}
	for {
		if f.cur == nil {
			t, ok, err := f.nextTuple()
			if err != nil || !ok {
				return nil, false, err
			}
			f.cur = f.retFn(t)
			if f.drain {
				markDrain(f.cur)
			}
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

// markDrain implements drainer.
func (f *flworIter) markDrain() {
	f.drain = true
	if f.cur != nil {
		markDrain(f.cur)
	}
}

// flworMorsel is the parallel-round state of a morsel-eligible FLWOR: the
// pulling goroutine gathers a round of raw tuples (forcing the let and
// outer bindings workers will read — see flworForceSets), worker forks
// evaluate where+return per tuple chunk, and chunk outputs stitch back in
// tuple order, preserving the sequential result order exactly.
type flworMorsel struct {
	fr         *Frame
	outerForce []int // bindings outside the FLWOR; forced once, after the first tuple
	letForce   []int // the FLWOR's own referenced lets; forced per tuple
	forced     bool

	out      []xdm.Item // pending stitched output of the last round
	oi       int
	roundErr error // held until the round's outputs have been delivered
	done     bool  // no more rounds: the tuples ran out, a lease was refused, or an error was served
}

// next serves a drained flworIter's parallel side; handled=false leaves
// this pull to the sequential loop, which the iterator keeps for good once
// no round is left to run.
func (m *flworMorsel) next(f *flworIter) (xdm.Item, bool, error, bool) {
	for {
		if m.oi < len(m.out) {
			it := m.out[m.oi]
			if m.oi++; m.oi == len(m.out) {
				m.out, m.oi = nil, 0
			}
			return it, true, nil, true
		}
		if m.roundErr != nil {
			err := m.roundErr
			m.roundErr = nil
			m.done = true
			return nil, false, err, true
		}
		if m.done || f.cur != nil || m.fr.dyn.streamingLazy() {
			return nil, false, nil, false
		}
		ran, err := m.runRound(f)
		if err != nil {
			m.done = true
			return nil, false, err, true
		}
		if !ran {
			m.done = true
			return nil, false, nil, false
		}
		// Loop: serve the round's output, or run another round if it
		// produced nothing (all tuples where-filtered).
	}
}

// runRound gathers and evaluates one parallel round. ran=false (without
// error) means no extra workers were available.
func (m *flworMorsel) runRound(f *flworIter) (bool, error) {
	d := m.fr.dyn
	extra, release := d.leaseExtra(d.Workers - 1)
	if extra == 0 {
		return false, nil
	}
	defer release()
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
		t, ok, err := f.tuples()
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
		t.pin() // workers' constructors may keep it (see Frame.pin)
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
	// Outer bindings are forced once a first tuple exists: the first
	// tuple's where and return would read them, but an error from the
	// tuple source comes first, as it does sequentially.
	if !m.forced {
		for _, id := range m.outerForce {
			if _, err := m.fr.lookup(id).All(); err != nil {
				return false, err
			}
		}
		m.forced = true
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
			if err := w.CheckInterrupt(); err != nil {
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
	if f.where != nil {
		keep, err := f.where(t2)
		if err != nil || !keep {
			return nil, err
		}
	}
	return drain(w, f.retFn(t2))
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

// baseTuple yields the initial single tuple (the enclosing frame).
func baseTuple(fr *Frame) tupleIter {
	done := false
	return func() (*Frame, bool, error) {
		if done {
			return nil, false, nil
		}
		done = true
		return fr, true, nil
	}
}

// applyClause extends a tuple stream with one for/let clause; a recycling
// for clause reuses its tuple frames (see forClauseState).
func applyClause(tuples tupleIter, cl *compiledClause, recycle bool) tupleIter {
	if cl.kind == expr.LetClause {
		// Lazy binding: the clause input is not evaluated until the
		// variable is first used, and then memoized.
		return func() (*Frame, bool, error) {
			t, ok, err := tuples()
			if err != nil || !ok {
				return nil, false, err
			}
			return t.bind(cl.varID, NewLazySeq(cl.in(t))), true, nil
		}
	}
	// for-clause: one tuple per item of the input sequence.
	f := &forClauseState{tuples: tuples, cl: cl}
	if recycle {
		f.link = &f.ring
	}
	return f.next
}

// forClauseState is the shared cursor of one for-clause: the current outer
// tuple and the current position within its input sequence.
//
// A recycling clause takes its tuples from a ring of slots that each pull
// rewinds: a consumer pulls again only once it is done with the tuples it
// pulled before, unless something it built keeps one, and that pins it
// (Frame.pin). A pinned slot is replaced, not reused. The ring is a list
// from ring, and link is where the next tuple's slot hangs; a clause that
// does not recycle has no link. The state stays 64 bytes: a FLWOR run per
// streamed window allocates one per window.
type forClauseState struct {
	tuples tupleIter
	cl     *compiledClause
	outer  *Frame
	inner  Iter
	pos    int64
	ring   *tupleSlot
	link   **tupleSlot
}

// tupleSlot is one for tuple: its frame, its one-item sequence and that
// item's slot, in one allocation, and the ring's next slot.
type tupleSlot struct {
	fr   Frame
	seq  LazySeq
	item [1]xdm.Item
	next *tupleSlot
}

// slot returns the slot for the next tuple: a fresh one, or the ring's
// next unpinned one.
func (f *forClauseState) slot() *tupleSlot {
	if f.link == nil {
		return new(tupleSlot)
	}
	t := *f.link
	if t == nil || t.fr.pinned {
		fresh := new(tupleSlot)
		if t != nil {
			fresh.next = t.next
		}
		*f.link, t = fresh, fresh
	}
	f.link = &t.next
	return t
}

// rewind starts the ring over at a pull: the consumer is done with the
// tuples it pulled before.
func (f *forClauseState) rewind() {
	if f.link != nil {
		f.link = &f.ring
	}
}

// bindTuple builds the output tuple for one item of the clause input.
func (f *forClauseState) bindTuple(it xdm.Item) (*Frame, error) {
	f.pos++
	if f.cl.typ != nil && !f.cl.typ.Item.MatchesItem(it) {
		return nil, xdm.ErrType("for-variable item does not match %s", *f.cl.typ)
	}
	t := f.slot()
	t.item[0] = it
	t.seq = LazySeq{items: t.item[:]}
	t.fr = Frame{parent: f.outer, dyn: f.outer.dyn, id: f.cl.varID, val: &t.seq}
	fr := &t.fr
	if f.cl.posID >= 0 {
		fr = fr.bind(f.cl.posID, MaterializedSeq(xdm.Sequence{xdm.NewInteger(f.pos)}))
	}
	return fr, nil
}

// advanceOuter moves to the next outer tuple; ok=false at the end.
func (f *forClauseState) advanceOuter() (bool, error) {
	t, ok, err := f.tuples()
	if err != nil || !ok {
		return false, err
	}
	f.outer = t
	f.inner = f.cl.in(t)
	f.pos = 0
	return true, nil
}

func (f *forClauseState) next() (*Frame, bool, error) {
	f.rewind()
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

// filterTuples applies the where clause.
func filterTuples(tuples tupleIter, where condFn) tupleIter {
	return func() (*Frame, bool, error) {
		for {
			t, ok, err := tuples()
			if err != nil || !ok {
				return nil, false, err
			}
			keep, err := where(t)
			if err != nil {
				return nil, false, err
			}
			if keep {
				return t, true, nil
			}
		}
	}
}

// compileQuantified compiles some/every as a condition (see compileTest).
func (c *compiler) compileQuantified(n *expr.Quantified) (condFn, error) {
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
	sat, err := c.compileCond(n.Satisfies)
	if err != nil {
		return nil, err
	}
	every := n.Every
	return func(fr *Frame) (bool, error) {
		tuples := baseTuple(fr)
		for i := range binds {
			cl := compiledClause{kind: expr.ForClause, varID: binds[i].id, posID: -1, in: binds[i].in}
			tuples = applyClause(tuples, &cl, i == len(binds)-1)
		}
		// Early exit is the lazy-evaluation payoff: no binding past the
		// deciding one is evaluated.
		for {
			t, ok, err := tuples()
			if err != nil || !ok {
				// every: vacuously true; some: false
				return every && err == nil, err
			}
			b, err := sat(t)
			if err != nil || b != every {
				return b, err // early exit: lazy evaluation win
			}
		}
	}, nil
}
