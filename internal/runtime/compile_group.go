package runtime

import (
	"strings"

	"xqgo/internal/expr"
	"xqgo/internal/xdm"
)

// Grouping ("group by", the extension the paper lists under missing
// functionality) and try/catch evaluation.

// compileTryCatch evaluates the try clause with full materialization — a
// caught error must not escape through a lazily-consumed result — and
// switches to the catch clause on any dynamic error.
func (c *compiler) compileTryCatch(n *expr.TryCatch) (seqFn, error) {
	tryFn, err := c.compile(n.Try)
	if err != nil {
		return nil, err
	}
	catchFn, err := c.compile(n.Catch)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) Iter {
		seq, err := func() (out xdm.Sequence, err error) {
			defer recoverXQ(&err) // StreamedNode materialization panics too
			return drain(fr.dyn, tryFn(fr))
		}()
		if err != nil {
			return catchFn(fr)
		}
		return newSliceIter(seq)
	}, nil
}

// groupKey canonicalizes a grouping key value: values that compare eq group
// together (numeric promotion included); the empty sequence forms its own
// group.
func groupKey(a xdm.Atomic, present bool) string {
	if !present {
		return "\x00empty"
	}
	switch {
	case a.T.IsNumeric():
		f := a.AsFloat()
		return "n\x00" + lexicalFloat(f)
	case a.T == xdm.TString || a.T == xdm.TUntyped || a.T == xdm.TAnyURI:
		return "s\x00" + a.S
	case a.T == xdm.TBoolean:
		if a.Bool() {
			return "b\x001"
		}
		return "b\x000"
	default:
		return a.T.String() + "\x00" + a.Lexical()
	}
}

func lexicalFloat(f float64) string {
	// NaN keys group together; +0/-0 group together via formatting.
	s := xdm.NewDouble(f).Lexical()
	return strings.TrimPrefix(s, "+")
}

// groupSpec is a compiled group-by key.
type groupSpec struct {
	varID int
	key   seqFn
}

// applyGrouping materializes the incoming tuples, partitions them by the
// key values, and emits one tuple per group with (a) the group variables
// bound to their key values and (b) every clause-bound variable rebound to
// the concatenation of its values across the group's members, in order.
func applyGrouping(tuples tupleIter, base *Frame, specs []groupSpec, rebindIDs []int) tupleIter {
	type group struct {
		keys    []xdm.Sequence // one singleton-or-empty per spec
		members []*Frame
	}
	var groups []*group
	index := map[string]*group{}
	var gerr error

	for {
		t, ok, err := tuples()
		if err != nil {
			gerr = err
			break
		}
		if !ok {
			break
		}
		var keyParts []string
		keys := make([]xdm.Sequence, len(specs))
		for i, sp := range specs {
			a, present, err := atomizeSingle(sp.key(t))
			if err != nil {
				gerr = err
				break
			}
			if present {
				if a.T == xdm.TUntyped {
					a = xdm.NewString(a.S)
				}
				keys[i] = xdm.Sequence{a}
			}
			keyParts = append(keyParts, groupKey(a, present))
		}
		if gerr != nil {
			break
		}
		full := strings.Join(keyParts, "\x01")
		g, seen := index[full]
		if !seen {
			g = &group{keys: keys}
			index[full] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, t)
	}

	pos := 0
	return func() (*Frame, bool, error) {
		if gerr != nil {
			err := gerr
			gerr = nil
			return nil, false, err
		}
		if pos >= len(groups) {
			return nil, false, nil
		}
		g := groups[pos]
		pos++
		fr := base
		// Rebind clause variables to concatenations across the group.
		for _, id := range rebindIDs {
			var all xdm.Sequence
			for _, m := range g.members {
				vals, err := m.lookup(id).All()
				if err != nil {
					return nil, false, err
				}
				all = append(all, vals...)
			}
			fr = fr.bind(id, MaterializedSeq(all))
		}
		for i, sp := range specs {
			fr = fr.bind(sp.varID, MaterializedSeq(g.keys[i]))
		}
		return fr, true, nil
	}
}
