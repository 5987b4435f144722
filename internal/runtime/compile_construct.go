package runtime

import (
	"errors"
	"strings"

	"xqgo/internal/expr"
	"xqgo/internal/store"
	"xqgo/internal/xdm"
)

// Node constructors. Construction is THE side-effecting operation of
// XQuery: every evaluation creates nodes with fresh identities. The default
// path materializes the constructed tree in a store document (ids
// assigned). When the optimizer marked a constructor NoNodeIDs — the result
// is serialized without ever being navigated — the constructor instead
// yields a StreamedNode whose tokens are generated on demand and never
// given identities (experiment E7). Any accessor use of a StreamedNode
// falls back to materializing it, so the optimization is always safe.

type compiledAttr struct {
	name  xdm.QName
	parts []seqFn // literal parts compiled too; joined per the AVT rules
	lits  []string
}

type compiledConstructor struct {
	kind    xdm.NodeKind
	name    xdm.QName
	nameFn  seqFn // computed name
	target  string
	ns      []expr.NSBinding
	attrs   []compiledAttr
	content []contentPiece
	noIDs   bool
	valueFn seqFn // text/comment/PI/doc value or content
}

// contentPiece is one content expression: literal text is distinguished so
// the "adjacent atomics joined by space" rule applies only to evaluated
// content.
type contentPiece struct {
	literalText string
	isLiteral   bool
	fn          seqFn
}

func (c *compiler) compileConstructor(e expr.Expr) (seqFn, error) {
	cc, err := c.buildConstructor(e)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) Iter {
		if cc.noIDs && !c.opts.Eager {
			return singleIter(&StreamedNode{cc: cc, fr: fr})
		}
		n, err := evalConstructor(cc, fr)
		if err != nil {
			return errIter(err)
		}
		return singleIter(n)
	}, nil
}

func (c *compiler) buildConstructor(e expr.Expr) (*compiledConstructor, error) {
	switch n := e.(type) {
	case *expr.ElemConstructor:
		cc := &compiledConstructor{kind: xdm.ElementNode, name: n.Name, ns: n.NS, noIDs: n.NoNodeIDs}
		if n.NameExpr != nil {
			fn, err := c.compile(n.NameExpr)
			if err != nil {
				return nil, err
			}
			cc.nameFn = fn
		}
		for _, a := range n.Attrs {
			ca := compiledAttr{name: a.Name}
			for _, part := range a.Parts {
				if lit, ok := part.(*expr.Literal); ok && lit.Val.T == xdm.TString {
					ca.parts = append(ca.parts, nil)
					ca.lits = append(ca.lits, lit.Val.S)
					continue
				}
				fn, err := c.compile(part)
				if err != nil {
					return nil, err
				}
				ca.parts = append(ca.parts, fn)
				ca.lits = append(ca.lits, "")
			}
			cc.attrs = append(cc.attrs, ca)
		}
		for _, ce := range n.Content {
			piece, err := c.compileContentPiece(ce)
			if err != nil {
				return nil, err
			}
			cc.content = append(cc.content, piece)
		}
		return cc, nil

	case *expr.AttrConstructor:
		cc := &compiledConstructor{kind: xdm.AttributeNode, name: n.Name}
		if n.NameExpr != nil {
			fn, err := c.compile(n.NameExpr)
			if err != nil {
				return nil, err
			}
			cc.nameFn = fn
		}
		ca := compiledAttr{name: n.Name}
		for _, part := range n.Value {
			fn, err := c.compile(part)
			if err != nil {
				return nil, err
			}
			ca.parts = append(ca.parts, fn)
			ca.lits = append(ca.lits, "")
		}
		cc.attrs = []compiledAttr{ca}
		return cc, nil

	case *expr.TextConstructor:
		fn, err := c.compile(n.X)
		if err != nil {
			return nil, err
		}
		return &compiledConstructor{kind: xdm.TextNode, valueFn: fn}, nil

	case *expr.CommentConstructor:
		fn, err := c.compile(n.X)
		if err != nil {
			return nil, err
		}
		return &compiledConstructor{kind: xdm.CommentNode, valueFn: fn}, nil

	case *expr.PIConstructor:
		fn, err := c.compile(n.X)
		if err != nil {
			return nil, err
		}
		return &compiledConstructor{kind: xdm.PINode, target: n.Target, valueFn: fn}, nil

	case *expr.DocConstructor:
		fn, err := c.compile(n.X)
		if err != nil {
			return nil, err
		}
		return &compiledConstructor{kind: xdm.DocumentNode, valueFn: fn}, nil
	}
	return nil, xdm.ErrType("not a constructor: %T", e)
}

func (c *compiler) compileContentPiece(ce expr.Expr) (contentPiece, error) {
	// Literal text inside a direct constructor arrives as
	// TextConstructor(Literal); keep it distinguishable.
	if tc, ok := ce.(*expr.TextConstructor); ok {
		if lit, ok := tc.X.(*expr.Literal); ok && lit.Val.T == xdm.TString {
			return contentPiece{literalText: lit.Val.S, isLiteral: true}, nil
		}
	}
	fn, err := c.compile(ce)
	if err != nil {
		return contentPiece{}, err
	}
	return contentPiece{fn: fn}, nil
}

// evalAttrValue computes an attribute's string value from its parts.
func evalAttrValue(ca *compiledAttr, fr *Frame) (string, error) {
	var b strings.Builder
	for i, part := range ca.parts {
		if part == nil {
			b.WriteString(ca.lits[i])
			continue
		}
		seq, err := drain(part(fr))
		if err != nil {
			return "", err
		}
		for j, it := range seq {
			if j > 0 {
				b.WriteString(" ")
			}
			b.WriteString(xdm.StringValue(it))
		}
	}
	return b.String(), nil
}

// constructorName resolves the (possibly computed) node name.
func constructorName(cc *compiledConstructor, fr *Frame) (xdm.QName, error) {
	if cc.nameFn == nil {
		return cc.name, nil
	}
	a, ok, err := atomizeSingle(cc.nameFn(fr))
	if err != nil {
		return xdm.QName{}, err
	}
	if !ok {
		return xdm.QName{}, xdm.ErrType("computed constructor name is the empty sequence")
	}
	switch a.T {
	case xdm.TQName:
		return a.Q, nil
	case xdm.TString, xdm.TUntyped:
		prefix, local := xdm.SplitLexical(a.S)
		return xdm.QName{Prefix: prefix, Local: local}, nil
	}
	return xdm.QName{}, xdm.ErrType("computed constructor name must be a QName or string, got %s", a.T)
}

// evalConstructor builds a constructed node in a fresh store document.
func evalConstructor(cc *compiledConstructor, fr *Frame) (xdm.Node, error) {
	b := store.NewBuilder(store.BuilderOptions{})
	if err := buildInto(b, cc, fr); err != nil {
		return nil, err
	}
	doc, err := b.Done()
	if err != nil {
		return nil, err
	}
	fr.dyn.Prof.addNodesMaterialized(1)
	return doc.RootNode(), nil
}

// buildInto emits a constructor into a builder.
func buildInto(b *store.Builder, cc *compiledConstructor, fr *Frame) error {
	switch cc.kind {
	case xdm.ElementNode:
		name, err := constructorName(cc, fr)
		if err != nil {
			return err
		}
		b.StartElement(name)
		for _, ns := range cc.ns {
			b.NSDecl(ns.Prefix, ns.URI)
		}
		for i := range cc.attrs {
			v, err := evalAttrValue(&cc.attrs[i], fr)
			if err != nil {
				return err
			}
			if err := b.Attr(cc.attrs[i].name, v); err != nil {
				return attrError(err)
			}
		}
		if err := buildContent(b, cc.content, fr); err != nil {
			return err
		}
		b.EndElement()
		return nil

	case xdm.AttributeNode:
		name, err := constructorName(cc, fr)
		if err != nil {
			return err
		}
		v, err := evalAttrValue(&cc.attrs[0], fr)
		if err != nil {
			return err
		}
		return b.Attr(name, v)

	case xdm.TextNode, xdm.CommentNode, xdm.PINode:
		s, err := contentString(cc.valueFn, fr)
		if err != nil {
			return err
		}
		switch cc.kind {
		case xdm.TextNode:
			b.Text(s)
		case xdm.CommentNode:
			b.Comment(s)
		default:
			b.PI(cc.target, s)
		}
		return nil

	case xdm.DocumentNode:
		b.StartDocument()
		seq, err := drain(cc.valueFn(fr))
		if err != nil {
			return err
		}
		return copyContentSeq(b, seq)
	}
	return xdm.ErrType("cannot construct node kind %v", cc.kind)
}

// buildContent evaluates the content pieces of an element constructor into
// the builder, applying the content rules: literal text becomes text nodes
// verbatim; evaluated sequences copy nodes and join adjacent atomic values
// with single spaces.
func buildContent(b *store.Builder, content []contentPiece, fr *Frame) error {
	for _, piece := range content {
		if piece.isLiteral {
			b.Text(piece.literalText)
			continue
		}
		seq, err := drain(piece.fn(fr))
		if err != nil {
			return err
		}
		if err := copyContentSeq(b, seq); err != nil {
			return err
		}
	}
	return nil
}

// copyContentSeq copies an evaluated sequence into element/document content.
func copyContentSeq(b *store.Builder, seq xdm.Sequence) error {
	prevAtomic := false
	for _, it := range seq {
		if n, ok := it.(xdm.Node); ok {
			prevAtomic = false
			if sn, isStream := n.(*StreamedNode); isStream {
				m, err := sn.materialize()
				if err != nil {
					return err
				}
				n = m
			}
			if err := b.CopyNode(n); err != nil {
				return attrError(err)
			}
			continue
		}
		s := it.(xdm.Atomic).Lexical()
		if prevAtomic {
			b.Text(" " + s)
		} else {
			b.Text(s)
		}
		prevAtomic = true
	}
	return nil
}

// attrError gives a builder's attribute error its XQuery code: a duplicate
// name is err:XQDY0025, an attribute after content err:XQTY0024.
func attrError(err error) error {
	if errors.Is(err, store.ErrDuplicateAttribute) {
		return xdm.Errf("XQDY0025", "%v", err)
	}
	return xdm.Errf("XQTY0024", "%v", err)
}

// contentString computes the joined string value for text/comment/PI
// constructors.
func contentString(fn seqFn, fr *Frame) (string, error) {
	seq, err := drain(fn(fr))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, it := range seq {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(xdm.StringValue(xdm.Atomize(it)))
	}
	return b.String(), nil
}
