package structjoin

// Output-producing holistic path join (the PathStack member of the
// TwigStack family, Bruno/Koudas/Srivastava): one synchronized pass over
// the k Start-sorted posting lists of a linear chain q1//q2/…//qk, with one
// stack per non-leaf step holding the currently open (nested) matches.
// Unlike a pipeline of binary stack-tree joins, no intermediate pair list is
// ever materialized — total work is O(Σ|list_i| + |out|) regardless of how
// poorly the chain's prefixes select.
//
// Stack invariant: every push first pops the entries that closed before the
// pushed posting starts, so each stack is a chain of nested regions and its
// depth is bounded by the document depth. A top-heavy input (many closed
// ancestors between matches) therefore never grows a stack.
//
// TwigStack in twig.go is the counting variant over branching patterns;
// this file is the execution operator the runtime dispatches to, so it
// returns the actual leaf postings (what a path expression evaluates to).

// PathMatchLeaf returns the distinct postings of the last list that
// terminate at least one full root-to-leaf match of the chain, in document
// order. childEdge[i] constrains the edge between step i-1 and step i to
// parent/child; childEdge[0] is ignored (callers pre-filter the top list
// against the document root). Lists must be Start-sorted, as built by
// BuildIndex. The inputs are read-only, so concurrent calls over shared
// (differently pruned) lists are safe — the morsel decomposition the
// runtime uses relies on this.
func PathMatchLeaf(lists []List, childEdge []bool) List {
	k := len(lists)
	if k == 0 {
		return nil
	}
	if k == 1 {
		return append(List(nil), lists[0]...)
	}
	pos := make([]int, k)
	stacks := make([][]Posting, k-1) // leaf matches are emitted, never stacked
	var out List
	for pos[k-1] < len(lists[k-1]) {
		// qmin: stream with the smallest next Start. Ties go to the
		// shallower (outer) stream so an ancestor is stacked before an
		// equal-Start inner read could observe it missing.
		qmin := -1
		minStart := infStart
		for i := 0; i < k; i++ {
			if pos[i] < len(lists[i]) && lists[i][pos[i]].Region.Start < minStart {
				qmin, minStart = i, lists[i][pos[i]].Region.Start
			}
		}
		if qmin < 0 {
			break
		}
		cur := lists[qmin][pos[qmin]]
		pos[qmin]++

		if qmin == 0 {
			stacks[0] = append(popClosed(stacks[0], cur.Region.Start), cur)
			continue
		}
		// The parent stack is a nested chain once its closed entries are
		// popped, so every entry left contains cur — except the same-Start
		// twin of a q_{i-1}=q_i self-chain, which Contains (strict on Start)
		// rejects. The level test picks the parent for a child edge.
		ps := popClosed(stacks[qmin-1], cur.Region.Start)
		stacks[qmin-1] = ps
		matched := false
		for i := len(ps) - 1; i >= 0; i-- {
			if !ps[i].Region.Contains(cur.Region) {
				continue
			}
			if childEdge[qmin] && ps[i].Region.Level+1 != cur.Region.Level {
				continue
			}
			matched = true
			break
		}
		if !matched {
			continue // no root path through cur: drop it
		}
		if qmin == k-1 {
			// Leaf postings arrive in Start order and each is read once, so
			// out is distinct and in document order by construction.
			out = append(out, cur)
		} else {
			stacks[qmin] = append(popClosed(stacks[qmin], cur.Region.Start), cur)
		}
	}
	return out
}

// popClosed pops the entries of a nested-chain stack whose region ended
// before start. Only the top needs examining: an entry below an open one
// contains it, so it is open too.
func popClosed(s []Posting, start int64) []Posting {
	for len(s) > 0 && s[len(s)-1].Region.End < start {
		s = s[:len(s)-1]
	}
	return s
}
