package tokens

import (
	"fmt"

	"xqgo/internal/store"
	"xqgo/internal/xdm"
)

// DocScanner streams the tokens of a stored subtree. Because the store is an
// array in document order, scanning is a linear walk and Skip is a constant-
// time jump to the end of the current subtree — the property the paper's
// skip() contract is designed around.
type DocScanner struct {
	doc  *store.Document
	root int32

	// cursor state
	next    int32 // next node id to open
	opened  bool
	pending []frame        // open nodes awaiting End tokens
	ns      []store.NSDecl // declarations of the element just opened, not yet returned
	// subtreeEnd of the token most recently returned by Next, for Skip.
	lastStart  int32
	lastIsOpen bool
}

type frame struct {
	id  int32
	end int32
}

// NewDocScanner creates a scanner over the subtree rooted at id (use 0 for
// the whole document).
func NewDocScanner(d *store.Document, id int32) *DocScanner {
	return &DocScanner{doc: d, root: id}
}

// Open resets the scanner to the start of the subtree.
func (s *DocScanner) Open() error {
	s.next = s.root
	s.opened = true
	s.pending = s.pending[:0]
	s.ns = nil
	s.lastIsOpen = false
	return nil
}

// Next returns the next token of the pre-order walk.
func (s *DocScanner) Next() (Token, bool, error) {
	if !s.opened {
		return Token{}, false, fmt.Errorf("tokens: Next before Open")
	}
	d := s.doc
	if len(s.ns) > 0 {
		// Declarations come right after their StartElement, before the
		// attributes; lastIsOpen stays set, so Skip still skips the element.
		ns := s.ns[0]
		s.ns = s.ns[1:]
		return Token{Kind: KindNamespace, Name: xdm.LocalName(ns.Prefix), Value: ns.URI}, true, nil
	}
	end := d.EndID(s.root)
	// Emit pending End tokens for nodes whose subtree we have left.
	if len(s.pending) > 0 {
		top := s.pending[len(s.pending)-1]
		if s.next > top.end || s.next > end {
			s.pending = s.pending[:len(s.pending)-1]
			s.lastIsOpen = false
			if d.Kind(top.id) == xdm.DocumentNode {
				return Token{Kind: KindEndDocument}, true, nil
			}
			return Token{Kind: KindEndElement, Name: d.NameOf(top.id)}, true, nil
		}
	}
	if s.next > end {
		return Token{}, false, nil
	}
	id := s.next
	s.next++
	switch d.Kind(id) {
	case xdm.DocumentNode:
		s.pending = append(s.pending, frame{id: id, end: d.EndID(id)})
		s.lastStart, s.lastIsOpen = id, true
		return Token{Kind: KindStartDocument}, true, nil
	case xdm.ElementNode:
		s.pending = append(s.pending, frame{id: id, end: d.EndID(id)})
		s.lastStart, s.lastIsOpen = id, true
		s.ns = d.NSDecls(id)
		return Token{Kind: KindStartElement, Name: d.NameOf(id)}, true, nil
	case xdm.AttributeNode:
		s.lastIsOpen = false
		return Token{Kind: KindAttribute, Name: d.NameOf(id), Value: d.Value(id)}, true, nil
	case xdm.TextNode:
		s.lastIsOpen = false
		return Token{Kind: KindText, Value: d.Value(id)}, true, nil
	case xdm.CommentNode:
		s.lastIsOpen = false
		return Token{Kind: KindComment, Value: d.Value(id)}, true, nil
	case xdm.PINode:
		s.lastIsOpen = false
		return Token{Kind: KindPI, Name: d.NameOf(id), Value: d.Value(id)}, true, nil
	default:
		return Token{}, false, fmt.Errorf("tokens: unexpected node kind %v", d.Kind(id))
	}
}

// Skip jumps past the subtree whose Start token was most recently returned:
// a constant-time operation over the array store.
func (s *DocScanner) Skip() error {
	if !s.opened {
		return fmt.Errorf("tokens: Skip before Open")
	}
	if !s.lastIsOpen {
		return nil // nothing open: Skip is a no-op
	}
	s.next = s.doc.EndID(s.lastStart) + 1
	s.ns = nil
	// The subtree's End token will not be emitted either.
	if len(s.pending) > 0 && s.pending[len(s.pending)-1].id == s.lastStart {
		s.pending = s.pending[:len(s.pending)-1]
	}
	s.lastIsOpen = false
	return nil
}

// Close releases resources (none held).
func (s *DocScanner) Close() { s.opened = false }

// Source is an item that generates its own tokens: the runtime's id-free
// constructed nodes.
type Source interface {
	EmitTokens(emit func(Token) error) error
}

// EmitItem sends the tokens of one item to emit, from the token source the
// item already has: a stored node is scanned, a Source generates its own, an
// atomic value travels as one KindAtomic token.
func EmitItem(item xdm.Item, emit func(Token) error) error {
	switch n := item.(type) {
	case *store.Node:
		sc := NewDocScanner(n.D, n.ID)
		if err := sc.Open(); err != nil {
			return err
		}
		for {
			t, ok, err := sc.Next()
			if err != nil || !ok {
				return err
			}
			if err := emit(t); err != nil {
				return err
			}
		}
	case Source:
		return n.EmitTokens(emit)
	case xdm.Atomic:
		return emit(Token{Kind: KindAtomic, Atom: n})
	}
	return fmt.Errorf("tokens: no token source for %T", item)
}

// SliceIterator replays a materialized token slice; it is the product of the
// buffer-iterator factory.
type SliceIterator struct {
	toks []Token
	pos  int
}

// NewSliceIterator creates an iterator over materialized tokens.
func NewSliceIterator(toks []Token) *SliceIterator { return &SliceIterator{toks: toks} }

// Open resets to the first token.
func (s *SliceIterator) Open() error { s.pos = 0; return nil }

// Next returns the next token.
func (s *SliceIterator) Next() (Token, bool, error) {
	if s.pos >= len(s.toks) {
		return Token{}, false, nil
	}
	t := s.toks[s.pos]
	s.pos++
	return t, true, nil
}

// Skip advances past the subtree opened by the most recently returned token
// by scanning for the matching End token.
func (s *SliceIterator) Skip() error {
	if s.pos == 0 {
		return nil
	}
	last := s.toks[s.pos-1]
	if last.Kind != KindStartElement && last.Kind != KindStartDocument {
		return nil
	}
	depth := 1
	for ; s.pos < len(s.toks); s.pos++ {
		switch s.toks[s.pos].Kind {
		case KindStartElement, KindStartDocument:
			depth++
		case KindEndElement, KindEndDocument:
			depth--
			if depth == 0 {
				s.pos++
				return nil
			}
		}
	}
	return nil
}

// Close releases resources (none held).
func (s *SliceIterator) Close() {}

// Materialize drains an iterator into a token slice.
func Materialize(it Iterator) ([]Token, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []Token
	for {
		t, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t)
	}
}

// BufferFactory materializes a producer once and hands out any number of
// independent consumers — the paper's buffer-iterator factory for common
// sub-expressions and multiply-used variables. Materialization is lazy: the
// producer is not drained until the first consumer is requested.
type BufferFactory struct {
	src    Iterator
	toks   []Token
	filled bool
	err    error
}

// NewBufferFactory wraps a producer.
func NewBufferFactory(src Iterator) *BufferFactory { return &BufferFactory{src: src} }

// Consumer returns a fresh iterator over the buffered stream.
func (f *BufferFactory) Consumer() (Iterator, error) {
	if !f.filled {
		f.toks, f.err = Materialize(f.src)
		f.filled = true
	}
	if f.err != nil {
		return nil, f.err
	}
	return NewSliceIterator(f.toks), nil
}
