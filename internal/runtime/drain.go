package runtime

import "xqgo/internal/xdm"

// Drain demand. Every operator has one pull method, Next, which yields one
// item: the paper's lazy iterator. A consumer that reads its input to the
// end (Eval, ExecuteToWriter, sort and dedup tails, materialized arguments,
// fn:count, a fold) says so once, through markDrain, and then pulls with
// Next. The mark carries no items and changes no result. Only the three
// morsel work sources act on it: a descendant storeScan, a morsel FLWOR and
// a comma sequence's parSeqIter may run a parallel round inside Next only
// when marked. profIter, concatIter, pathIter, chainIter, flworIter and
// lazyCursor pass the mark to the iterator they read and to each one they
// open later. Lazy consumers (effective boolean value, quantifiers,
// fn:exists, positional predicates) never mark, so they never lease a
// worker, and errors or non-termination in parts of a query that
// item-at-a-time evaluation would never reach are still never reached.

// drainer is implemented by the iterators that act on the mark or pass it
// on. markDrain may be called at any point of the iteration, and more than
// once.
type drainer interface {
	markDrain()
}

// markDrain tells it that its consumer reads it to the end.
func markDrain(it Iter) {
	if d, ok := it.(drainer); ok {
		d.markDrain()
	}
}

// sizedIter is implemented by iterators that know how many items remain
// without producing them (ranges, materialized slices). fn:count uses it to
// skip production entirely; ok=false means the size is unknown. Only
// side-effect-free, error-free sources may report a size.
type sizedIter interface {
	remaining() (int64, bool)
}

// drain marks an iterator and materializes it. The output starts small:
// most drains are predicate operands and step results of a handful of
// items, run once per tuple or per streaming window. It doubles in place
// as it fills.
func drain(dyn *Dynamic, it Iter) (xdm.Sequence, error) {
	markDrain(it)
	out := make(xdm.Sequence, 0, drainStart)
	for {
		x, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		if len(out) == cap(out) {
			// Budget the doubling once a single drain grows past the floor:
			// large materializations are the OOM risk, while the many small
			// transient drains of ordinary evaluation stay free (charging
			// them would count total allocation, not retained bytes, and
			// false-trip long-running queries).
			if cap(out) >= budgetDrainFloor {
				if err := dyn.Budget.Charge(int64(cap(out)) * budgetItemBytes); err != nil {
					return nil, err
				}
			}
			out = doubled(out)
		}
		out = append(out, x)
	}
}

// doubled copies a full sequence into twice its capacity (at least
// drainStart). Large sequences grow by doubling, not by append's smaller
// steps, so a drain allocates at most about twice what it keeps.
func doubled(seq xdm.Sequence) xdm.Sequence {
	grown := make(xdm.Sequence, len(seq), max(2*cap(seq), drainStart))
	copy(grown, seq)
	return grown
}

// drainStart is the initial capacity of a drained sequence.
const drainStart = 8

// budgetItemBytes is the charged estimate per retained sequence slot: the
// two-word interface header. The items' own payloads are charged where
// they are built (store nodes at parse time, window buffers by byte).
const budgetItemBytes = 16

// budgetDrainFloor is the slice capacity (in items) above which a single
// materialization starts charging its growth against the memory budget.
const budgetDrainFloor = 512
