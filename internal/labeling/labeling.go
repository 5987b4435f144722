// Package labeling provides the node labels of XML trees: the (start, end,
// level) region encoding used by structural joins. A label answers the
// structural predicates — ancestor/descendant, parent/child, document
// order — in O(1) without touching the tree, which is what makes
// merge/stack-based structural joins possible.
package labeling

// Region is an interval label: Start and End are pre/post-style positions
// with Start < child.Start <= child.End < End for every descendant, and
// Level is the depth from the root (root = 0).
type Region struct {
	Start int64
	End   int64
	Level int32
}

// Contains reports whether r is a proper ancestor of o (o strictly inside r).
func (r Region) Contains(o Region) bool {
	return r.Start < o.Start && o.End <= r.End
}

// Before reports whether r precedes o in document order (and is not an
// ancestor of o).
func (r Region) Before(o Region) bool { return r.End < o.Start }

// Compare orders two regions by document order of their start positions.
func (r Region) Compare(o Region) int {
	switch {
	case r.Start < o.Start:
		return -1
	case r.Start > o.Start:
		return 1
	default:
		return 0
	}
}
