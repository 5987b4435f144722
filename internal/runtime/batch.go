package runtime

import "xqgo/internal/xdm"

// Batched pull execution. The item-granularity Iter contract pays one
// interface dispatch per item per operator; on deep pipelines that cost
// dominates (the per-call "get next" overhead the paper flags as the price
// of the fully lazy design). BatchIter is the vectorized fast path: an
// operator that can produce many items per call implements NextBatch, and
// consumers that want whole sequences pull through nextBatch, which falls
// back to an item-at-a-time fill for operators that only implement Next.
//
// Semantics are demand-driven: Next keeps its exact lazy, item-at-a-time
// behavior everywhere, and NextBatch demand propagates only downward from
// consumers that drain their whole input anyway (Eval, ExecuteToWriter,
// sort/dedup tails, argument materialization, fn:count, ...). Lazy
// consumers — effective boolean value, quantifiers, fn:exists, positional
// predicates — keep pulling single items, so errors or non-termination in
// parts of a query that item-at-a-time evaluation would never reach are
// still never reached.

// BatchIter is implemented by iterators with a vectorized fast path.
//
// NextBatch fills buf with up to len(buf) items and returns how many were
// written. n == 0 with a nil error means the sequence is exhausted; a short
// batch (0 < n < len(buf)) does NOT signal the end — callers must pull
// again. On error, buf[:n] holds items produced before the error and the
// iterator must not be pulled again.
type BatchIter interface {
	Iter
	NextBatch(buf []xdm.Item) (int, error)
}

// sizedIter is implemented by iterators that know how many items remain
// without producing them (ranges, materialized slices). fn:count uses it to
// skip production entirely; ok=false means the size is unknown. Only
// side-effect-free, error-free sources may report a size.
type sizedIter interface {
	remaining() (int64, bool)
}

// nextBatch is the generic adapter: a native batch pull when the iterator
// supports it, otherwise an item-at-a-time fill with identical semantics.
func nextBatch(it Iter, buf []xdm.Item) (int, error) {
	if b, ok := it.(BatchIter); ok {
		return b.NextBatch(buf)
	}
	n := 0
	for n < len(buf) {
		x, ok, err := it.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		buf[n] = x
		n++
	}
	return n, nil
}

// drainBatched materializes an iterator into a sequence with batched pulls.
// Batches are pulled directly into the spare capacity of the output slice —
// a staging buffer would double every pointer write (and its GC barrier),
// which costs more than the dispatch the batching saves. The output starts
// small: most drains are predicate operands and step results of a handful of
// items, run once per tuple or per streaming window, and a full batch-sized
// slice for each of them was most of what such a query allocated; a large
// drain pays four extra doublings on its way up.
func drainBatched(dyn *Dynamic, it Iter) (xdm.Sequence, error) {
	out := make(xdm.Sequence, 0, drainStart)
	for {
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
			grown := make(xdm.Sequence, len(out), 2*cap(out))
			copy(grown, out)
			out = grown
		}
		win := out[len(out):cap(out)]
		if len(win) > maxBatch {
			win = win[:maxBatch] // keep interrupt polls frequent
		}
		n, err := nextBatch(it, win)
		out = out[:len(out)+n]
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
	}
}

// batchSize is the number of items moved per vectorized pull. Large enough
// to amortize the per-call costs, small enough that prefetching a batch
// ahead of the consumer stays cheap.
const batchSize = 128

// drainStart is the initial capacity of a drained sequence.
const drainStart = 8

// maxBatch caps the window handed to a single NextBatch when draining into
// a large sequence, so interrupt polls stay reasonably frequent.
const maxBatch = 4096

// budgetItemBytes is the charged estimate per retained sequence slot: the
// two-word interface header. The items' own payloads are charged where
// they are built (store nodes at parse time, window buffers by byte).
const budgetItemBytes = 16

// budgetDrainFloor is the slice capacity (in items) above which a single
// materialization starts charging its growth against the memory budget.
const budgetDrainFloor = 4 * batchSize

// getBuf takes a batch buffer from the per-execution pool (allocating on
// first use). Buffers are plan-shaped scratch space: iterators and sinks
// borrow one for the duration of a drain or for their internal staging and
// return it with putBuf; an abandoned buffer is simply collected.
func (d *Dynamic) getBuf() []xdm.Item {
	d.bufMu.Lock()
	if n := len(d.bufFree); n > 0 {
		b := d.bufFree[n-1]
		d.bufFree = d.bufFree[:n-1]
		d.bufMu.Unlock()
		return b
	}
	d.bufMu.Unlock()
	// A fresh buffer stays resident in this execution's pool until the
	// query ends, so its footprint is charged once here. getBuf has no
	// error return: overage panics the *BudgetError through the engine's
	// recover boundaries.
	d.Budget.MustCharge(batchSize * budgetItemBytes)
	return make([]xdm.Item, batchSize)
}

// putBuf returns a buffer to the pool, clearing item references so the pool
// does not pin result trees.
func (d *Dynamic) putBuf(buf []xdm.Item) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = nil
	}
	d.bufMu.Lock()
	d.bufFree = append(d.bufFree, buf)
	d.bufMu.Unlock()
}

// CheckInterruptN is CheckInterrupt for a batch of n productive steps: the
// step budget advances by n at once and the hook runs when a stride
// boundary was crossed, so batched operators poll the deadline about as
// often per item as item-at-a-time ones.
func (d *Dynamic) CheckInterruptN(n int) error {
	if d.Interrupt == nil || n <= 0 {
		return nil
	}
	if s := d.steps.Add(uint64(n)); s%interruptStride >= uint64(n) {
		return nil
	}
	d.Prof.addInterruptPoll()
	return d.Interrupt()
}
