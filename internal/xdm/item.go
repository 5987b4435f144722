package xdm

import (
	"math"
	"sort"
)

// Atomize extracts the typed value of an item ("fn:data"): nodes yield their
// typed value, atomic values pass through.
func Atomize(it Item) Atomic {
	if n, ok := it.(Node); ok {
		return n.TypedValue()
	}
	return it.(Atomic)
}

// EffectiveBoolean computes the Effective Boolean Value of a sequence
// (XQuery 1.0 §2.4.3, F&O §15.1.1): () is false; a sequence whose first item
// is a node is true; a single boolean is itself; a single string/untyped/
// anyURI is true iff non-empty; a single numeric is true unless 0 or NaN;
// anything else raises err:FORG0006.
func EffectiveBoolean(seq Sequence) (bool, error) {
	if len(seq) == 0 {
		return false, nil
	}
	return EffectiveBooleanItem(seq[0], len(seq) > 1)
}

// EffectiveBooleanItem is the EBV of a non-empty sequence known by its first
// item and whether more items follow. more is read only for an atomic first
// item, so a lazy caller need not pull past a node.
func EffectiveBooleanItem(first Item, more bool) (bool, error) {
	if first.IsNode() {
		return true, nil
	}
	if more {
		return false, Errf("FORG0006", "effective boolean value of a sequence of more than one atomic value")
	}
	a := first.(Atomic)
	switch a.T {
	case TBoolean:
		return a.Bool(), nil
	case TString, TUntyped, TAnyURI:
		return a.S != "", nil
	case TInteger:
		return a.Int() != 0, nil
	case TDecimal, TDouble, TFloat:
		f := a.AsFloat()
		return f != 0 && !math.IsNaN(f), nil
	default:
		return false, Errf("FORG0006", "no effective boolean value for %s", a.T)
	}
}

// SortDocOrderDedup sorts a sequence of nodes into document order and
// removes duplicate nodes (by identity). This is the operation path
// expressions require — and the one the optimizer works hard to elide.
// Returns a type error if any item is not a node.
func SortDocOrderDedup(seq Sequence) (Sequence, error) {
	for _, it := range seq {
		if !it.IsNode() {
			return nil, ErrType("path/union operand contains a non-node item")
		}
	}
	if len(seq) < 2 {
		return seq, nil
	}
	sort.SliceStable(seq, func(i, j int) bool {
		return CompareOrder(seq[i].(Node), seq[j].(Node)) < 0
	})
	out := seq[:1]
	for _, it := range seq[1:] {
		if CompareOrder(out[len(out)-1].(Node), it.(Node)) != 0 {
			out = append(out, it)
		}
	}
	return out, nil
}

// Single returns the sole item of a sequence, or a type error if the
// sequence is empty or has more than one item.
func Single(seq Sequence) (Item, error) {
	if len(seq) != 1 {
		return nil, ErrType("expected a single item, got a sequence of %d", len(seq))
	}
	return seq[0], nil
}

// StringValue returns the fn:string() of an item.
func StringValue(it Item) string {
	if n, ok := it.(Node); ok {
		return n.StringValue()
	}
	return it.(Atomic).Lexical()
}
