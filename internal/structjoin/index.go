// Package structjoin implements the structural-join machinery of the
// XML-database era the paper surveys ("Structural Joins: A Primitive for
// Efficient XML Query Pattern Matching", "Holistic twig joins"): an
// element name index over region labels, the stack-tree binary structural
// join, the naive tree-merge and navigation baselines, and one holistic
// twig join (the TwigStack family). All algorithms work on the
// store's (start, end, level) region labels (see internal/labeling), so
// ancestor/descendant tests are integer comparisons.
package structjoin

import (
	"sort"

	"xqgo/internal/labeling"
	"xqgo/internal/store"
	"xqgo/internal/xdm"
)

// Posting is one labeled node in an index list.
type Posting struct {
	Region labeling.Region
	ID     int32
}

// List is a name's posting list, sorted by document order (Start).
type List []Posting

// Index maps element names to posting lists for one document —
// the access path structural joins assume ("do NOT assume the data is
// pre-materialized" is the navigation engine's job; the index is the
// join engine's).
type Index struct {
	Doc      *store.Document
	elements map[string]List
}

// BuildIndex scans a document once and builds posting lists for every
// element name. The scan is in id order and a region's Start is its node's
// id, so every list comes out Start-sorted.
func BuildIndex(d *store.Document) *Index {
	idx := &Index{
		Doc:      d,
		elements: make(map[string]List),
	}
	for id := int32(0); id < int32(d.NumNodes()); id++ {
		if d.Kind(id) == xdm.ElementNode {
			key := d.ExpandedName(id).Clark()
			idx.elements[key] = append(idx.elements[key], Posting{Region: d.Region(id), ID: id})
		}
	}
	return idx
}

func sortList(l List) {
	sort.Slice(l, func(i, j int) bool { return l[i].Region.Start < l[j].Region.Start })
}

// Elements returns the posting list for an element name (nil if absent).
func (x *Index) Elements(name xdm.QName) List { return x.elements[name.Clark()] }

// Pair is one (ancestor, descendant) result of a binary structural join.
type Pair struct {
	Ancestor   Posting
	Descendant Posting
}
