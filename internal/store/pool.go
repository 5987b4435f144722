// Package store implements the document store: an array-based ("TokenStream
// style", not pointer-tree) representation of XML documents. Nodes are rows
// in parallel arrays indexed by pre-order position, so a node's id doubles
// as the Start of its region label and the id of its last descendant as the
// End — structural predicates (ancestor/descendant, document order) are
// integer comparisons, which is the substrate both the streaming runtime and
// the structural-join algorithms rely on.
//
// QNames and (optionally) text values are dictionary-pooled, reproducing the
// paper's "store strings only once" TokenStream optimization.
package store

import "xqgo/internal/xdm"

// NamePool is a dictionary of QNames: each distinct (URI, local) pair is
// stored once and referenced by index. Pools may be shared across documents.
type NamePool struct {
	names []xdm.QName
	index map[nameKey]int32
	// recent holds, per hash of a local name's length and end bytes, one
	// more than the index of the name interned last with that hash: a
	// document's few names are found again without hashing them in full.
	recent [64]int32
}

type nameKey struct{ space, local string }

// NewNamePool creates an empty pool.
func NewNamePool() *NamePool {
	return &NamePool{index: make(map[nameKey]int32)}
}

// Intern returns the pool index for the name, adding it if absent. The
// prefix of the first interning wins (prefixes are informational).
func (p *NamePool) Intern(q xdm.QName) int32 {
	h := 0
	if n := len(q.Local); n > 0 {
		h = (n*31 + int(q.Local[0])*7 + int(q.Local[n-1])) & (len(p.recent) - 1)
	}
	if i := p.recent[h] - 1; i >= 0 && p.names[i].Local == q.Local && p.names[i].Space == q.Space {
		return i
	}
	k := nameKey{q.Space, q.Local}
	i, ok := p.index[k]
	if !ok {
		i = int32(len(p.names))
		p.names = append(p.names, q)
		p.index[k] = i
	}
	p.recent[h] = i + 1
	return i
}

// Lookup returns the index of a name without interning, or -1.
func (p *NamePool) Lookup(q xdm.QName) int32 {
	if i, ok := p.index[nameKey{q.Space, q.Local}]; ok {
		return i
	}
	return -1
}

// Name returns the QName at index i.
func (p *NamePool) Name(i int32) xdm.QName { return p.names[i] }

// Len returns the number of distinct names in the pool.
func (p *NamePool) Len() int { return len(p.names) }

// TextPool deduplicates text/attribute values when enabled; when disabled it
// is a nil pointer and values are stored verbatim.
type TextPool struct {
	index map[string]string
}

// NewTextPool creates an empty text pool.
func NewTextPool() *TextPool { return &TextPool{index: make(map[string]string)} }

// Intern returns a canonical copy of s, deduplicating repeated values.
func (p *TextPool) Intern(s string) string {
	if p == nil {
		return s
	}
	if c, ok := p.index[s]; ok {
		return c
	}
	p.index[s] = s
	return s
}

// Len returns the number of distinct strings in the pool (0 for nil).
func (p *TextPool) Len() int {
	if p == nil {
		return 0
	}
	return len(p.index)
}
