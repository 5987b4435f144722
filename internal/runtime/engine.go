package runtime

import (
	"fmt"
	"io"

	"xqgo/internal/serializer"
	"xqgo/internal/xdm"
)

// This file is the execution boundary of a Prepared query: materializing
// evaluation, streaming iteration, and direct-to-writer serialization (the
// path where node-id-free construction pays off).

// newRootFrame builds the evaluation frame chain: root frame + globals.
func (p *Prepared) newRootFrame(dyn *Dynamic) (*Frame, error) {
	if dyn == nil {
		dyn = &Dynamic{}
	}
	dyn.proj.Store(p.opts.Projection)
	if dyn.Stream != nil && dyn.ContextItem == nil {
		// The streamed input is the context document; parsing starts here
		// but only proceeds as far as the query pulls.
		dyn.ContextItem = dyn.Stream.docFor(dyn).RootNode()
	}
	return p.bindGlobals(rootFrame(dyn))
}

// bindGlobals chains the prolog variables onto fr: externals from the
// dynamic context (checked against their declared types here, once), the
// rest as lazy initializers.
func (p *Prepared) bindGlobals(fr *Frame) (*Frame, error) {
	dyn := fr.dyn
	for _, g := range p.globals {
		var val *LazySeq
		switch {
		case g.external:
			seq, ok := dyn.Vars[g.name.Clark()]
			if !ok {
				return nil, xdm.Errf("XPDY0002", "no value for external variable $%s", g.name)
			}
			val = MaterializedSeq(seq)
		default:
			val = NewLazySeq(g.init(fr))
		}
		if g.typ != nil {
			seq, err := val.All()
			if err != nil {
				return nil, err
			}
			if !g.typ.Matches(seq) {
				return nil, xdm.ErrType("variable $%s does not match its declared type %s", g.name, *g.typ)
			}
			val = MaterializedSeq(seq)
		}
		fr = fr.bind(g.id, val)
	}
	return fr, nil
}

// Exec is a reusable execution of one plan under one Dynamic: the root
// frame and the variable bindings are set up once, and each Run only swaps
// the context item and instantiates the plan's iterators. It serves callers
// that evaluate the same plan over many context items in turn (the streaming
// evaluator: one residual plan, one window after another).
//
// A Run ends the previous one: the frame is shared, so the iterator of an
// earlier Run must be fully consumed or dropped first. Not safe for
// concurrent use.
type Exec struct {
	p     *Prepared
	focus *Frame // the root frame, whose context item Run replaces
	top   *Frame // focus plus the bound variables
}

// NewExec binds the plan to dyn. Prolog variables are bound here, once, so
// the plan must not declare initialized ones (an initializer may read the
// context item, which changes per Run); externals are fine.
func (p *Prepared) NewExec(dyn *Dynamic) (*Exec, error) {
	for _, g := range p.globals {
		if !g.external {
			return nil, fmt.Errorf("runtime: reusable execution of a plan with an initialized variable $%s", g.name)
		}
	}
	dyn.proj.Store(p.opts.Projection)
	focus := &Frame{dyn: dyn, id: -1, hasFocus: true, ctxPos: 1, ctxLast: lastOfOne}
	top, err := p.bindGlobals(focus)
	if err != nil {
		return nil, err
	}
	return &Exec{p: p, focus: focus, top: top}, nil
}

// Run evaluates the plan with item as the context item.
func (e *Exec) Run(item xdm.Item) Iter {
	e.focus.dyn.ContextItem = item
	e.focus.ctxItem = item
	return e.p.body(e.top)
}

// recoverXQ converts panics back into errors at the engine boundary:
// StreamedNode accessor aborts, budget overages (limits.BudgetError), and
// — so no query can take the process down — any other panic value, which
// surfaces as an XQGO0002 internal error.
func recoverXQ(err *error) {
	if r := recover(); r != nil {
		*err = PanicError(r)
	}
}

// RecoverXQ is the exported recover boundary for sibling packages'
// goroutine and callback edges (streamexec windows, subscription
// delivery): `defer runtime.RecoverXQ(&err)`.
func RecoverXQ(err *error) {
	if r := recover(); r != nil {
		*err = PanicError(r)
	}
}

// PanicError converts a recovered panic value into an execution error.
func PanicError(r any) error {
	if e, ok := r.(error); ok {
		return e
	}
	return xdm.Errf("XQGO0002", "internal error: recovered panic: %v", r)
}

// Eval executes the query and materializes the whole result.
func (p *Prepared) Eval(dyn *Dynamic) (seq xdm.Sequence, err error) {
	defer recoverXQ(&err)
	fr, err := p.newRootFrame(dyn)
	if err != nil {
		return nil, err
	}
	out, err := drain(fr.dyn, p.body(fr))
	if err != nil {
		return nil, err
	}
	// Materialize any streamed constructions escaping to the caller.
	for i, it := range out {
		if sn, ok := it.(*StreamedNode); ok {
			m, merr := sn.materialize()
			if merr != nil {
				return nil, merr
			}
			if dyn != nil {
				dyn.Prof.addNodesMaterialized(1)
			}
			out[i] = m
		}
	}
	return out, nil
}

// Iterator returns a lazy result iterator: items are produced on demand,
// the paper's "time to first answer" path.
func (p *Prepared) Iterator(dyn *Dynamic) (Iter, error) {
	fr, err := p.newRootFrame(dyn)
	if err != nil {
		return nil, err
	}
	return p.body(fr), nil
}

// ExecuteToWriter evaluates the query and serializes the result directly to
// w. Streamed constructor results are token-piped into the writer without
// node-id assignment or tree materialization (experiment E7); stored nodes
// are scanned into the same writer.
func (p *Prepared) ExecuteToWriter(dyn *Dynamic, w io.Writer) (err error) {
	defer recoverXQ(&err)
	if dyn == nil {
		dyn = &Dynamic{}
	}
	it, err := p.Iterator(dyn)
	if err != nil {
		return err
	}
	sw := serializer.New(w, serializer.Options{OmitXMLDecl: true})
	defer func() { dyn.Prof.addXMLTokens(sw.Tokens()) }()
	// Each item is written as soon as it is pulled: on a streamed input
	// that is as soon as it exists.
	markDrain(it)
	for {
		x, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			return sw.Close()
		}
		if err := sw.WriteItem(x); err != nil {
			return err
		}
		if err := dyn.CheckInterrupt(); err != nil {
			return err
		}
	}
}

// String renders a short description of the prepared query.
func (p *Prepared) String() string {
	mode := "streaming"
	if p.opts.Eager {
		mode = "eager"
	}
	return fmt.Sprintf("prepared query (%s engine, %d globals)", mode, len(p.globals))
}
