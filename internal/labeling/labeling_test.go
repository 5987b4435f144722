package labeling

import (
	"testing"
	"testing/quick"
)

func TestRegionPredicates(t *testing.T) {
	root := Region{Start: 0, End: 10, Level: 0}
	child := Region{Start: 1, End: 5, Level: 1}
	grand := Region{Start: 2, End: 3, Level: 2}
	sibling := Region{Start: 6, End: 9, Level: 1}

	if !root.Contains(child) || !root.Contains(grand) || !child.Contains(grand) {
		t.Error("containment chain")
	}
	if child.Contains(root) || grand.Contains(child) {
		t.Error("containment is antisymmetric")
	}
	if child.Contains(sibling) || sibling.Contains(child) {
		t.Error("siblings do not contain each other")
	}
	if !child.Before(sibling) || sibling.Before(child) {
		t.Error("Before is document order of disjoint regions")
	}
	if root.Before(child) || child.Before(root) {
		t.Error("ancestors are not Before their descendants")
	}
	if child.Compare(sibling) >= 0 || sibling.Compare(child) <= 0 || child.Compare(child) != 0 {
		t.Error("Compare by start position")
	}
}

func TestRegionTransitivityQuick(t *testing.T) {
	f := func(a, b, c uint16) bool {
		// Build three nested regions deterministically.
		s1 := int64(a % 100)
		r1 := Region{Start: s1, End: s1 + 300, Level: 0}
		r2 := Region{Start: s1 + 1 + int64(b%50), End: s1 + 200, Level: 1}
		r3 := Region{Start: r2.Start + 1 + int64(c%20), End: r2.Start + 100, Level: 2}
		if !r1.Contains(r2) || !r2.Contains(r3) {
			return true // construction out of shape; skip
		}
		return r1.Contains(r3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
