package runtime

import (
	"xqgo/internal/tokens"
	"xqgo/internal/xdm"
)

// StreamedNode is a constructed element whose tree is generated as tokens
// on demand instead of being materialized with node identifiers — the
// "decouple node construction from node id generation" optimization. It
// implements xdm.Node; any accessor call transparently materializes the
// tree (ids are then generated after all), so correctness never depends on
// how the optimizer marked the constructor.
type StreamedNode struct {
	cc  *compiledConstructor
	fr  *Frame
	mat xdm.Node // materialized fallback, built on first accessor use
}

var _ xdm.Node = (*StreamedNode)(nil)

// EmitTokens generates the constructed tree as a token stream without
// assigning node identifiers. emit is called once per token.
func (s *StreamedNode) EmitTokens(emit func(tokens.Token) error) error {
	return emitConstructor(s.cc, s.fr, emit)
}

func (s *StreamedNode) materialize() (xdm.Node, error) {
	if s.mat == nil {
		n, err := evalConstructor(s.cc, s.fr)
		if err != nil {
			return nil, err
		}
		s.mat = n
	}
	return s.mat, nil
}

func (s *StreamedNode) must() xdm.Node {
	n, err := s.materialize()
	if err != nil {
		// Accessors have no error channel; surface construction errors as
		// an empty inert node is unacceptable, so panic with the XQuery
		// error (recovered by the engine boundary).
		panic(err)
	}
	return n
}

// IsNode marks the item as a node.
func (s *StreamedNode) IsNode() bool { return true }

// Kind returns element (only elements are streamed).
func (s *StreamedNode) Kind() xdm.NodeKind { return xdm.ElementNode }

// NodeName resolves the constructor's name.
func (s *StreamedNode) NodeName() xdm.QName { return s.must().NodeName() }

// StringValue materializes and delegates.
func (s *StreamedNode) StringValue() string { return s.must().StringValue() }

// TypedValue materializes and delegates.
func (s *StreamedNode) TypedValue() xdm.Atomic { return s.must().TypedValue() }

// Parent of a constructed root is nil.
func (s *StreamedNode) Parent() xdm.Node { return nil }

// ChildrenOf materializes and delegates.
func (s *StreamedNode) ChildrenOf() []xdm.Node { return s.must().ChildrenOf() }

// AttributesOf materializes and delegates.
func (s *StreamedNode) AttributesOf() []xdm.Node { return s.must().AttributesOf() }

// BaseURI of a constructed node is empty.
func (s *StreamedNode) BaseURI() string { return "" }

// SameNode compares by materialized identity.
func (s *StreamedNode) SameNode(o xdm.Node) bool {
	if so, ok := o.(*StreamedNode); ok {
		return s == so
	}
	return s.must().SameNode(o)
}

// OrderKey materializes and delegates.
func (s *StreamedNode) OrderKey() (uint64, int64) { return s.must().OrderKey() }

// Root returns the node itself.
func (s *StreamedNode) Root() xdm.Node { return s }

// emitConstructor streams a compiled constructor as tokens.
func emitConstructor(cc *compiledConstructor, fr *Frame, emit func(tokens.Token) error) error {
	switch cc.kind {
	case xdm.ElementNode:
		name, err := constructorName(cc, fr)
		if err != nil {
			return err
		}
		if err := emit(tokens.Token{Kind: tokens.KindStartElement, Name: name}); err != nil {
			return err
		}
		for _, ns := range cc.ns {
			if err := emit(tokens.Token{Kind: tokens.KindNamespace,
				Name: xdm.LocalName(ns.Prefix), Value: ns.URI}); err != nil {
				return err
			}
		}
		for i := range cc.attrs {
			v, err := evalAttrValue(&cc.attrs[i], fr)
			if err != nil {
				return err
			}
			if err := emit(tokens.Token{Kind: tokens.KindAttribute,
				Name: cc.attrs[i].name, Value: v}); err != nil {
				return err
			}
		}
		for _, piece := range cc.content {
			if piece.isLiteral {
				if err := emit(tokens.Token{Kind: tokens.KindText, Value: piece.literalText}); err != nil {
					return err
				}
				continue
			}
			if err := emitContentSeq(piece.fn(fr), emit); err != nil {
				return err
			}
		}
		return emit(tokens.Token{Kind: tokens.KindEndElement, Name: name})

	case xdm.TextNode:
		s, err := contentString(cc.valueFn, fr)
		if err != nil {
			return err
		}
		return emit(tokens.Token{Kind: tokens.KindText, Value: s})

	case xdm.CommentNode:
		s, err := contentString(cc.valueFn, fr)
		if err != nil {
			return err
		}
		return emit(tokens.Token{Kind: tokens.KindComment, Value: s})

	case xdm.PINode:
		s, err := contentString(cc.valueFn, fr)
		if err != nil {
			return err
		}
		return emit(tokens.Token{Kind: tokens.KindPI, Name: xdm.LocalName(cc.target), Value: s})
	}
	// Attribute/document constructors are not streamed; materialize.
	n, err := evalConstructor(cc, fr)
	if err != nil {
		return err
	}
	return tokens.EmitItem(n, emit)
}

// emitContentSeq streams an evaluated content sequence as tokens, applying
// the atomic-joining rule and copying nodes tokenwise.
func emitContentSeq(it Iter, emit func(tokens.Token) error) error {
	prevAtomic := false
	for {
		x, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if n, isNode := x.(xdm.Node); isNode {
			prevAtomic = false
			if err := tokens.EmitItem(n, emit); err != nil {
				return err
			}
			continue
		}
		s := x.(xdm.Atomic).Lexical()
		if prevAtomic {
			s = " " + s
		}
		prevAtomic = true
		if err := emit(tokens.Token{Kind: tokens.KindText, Value: s}); err != nil {
			return err
		}
	}
}
