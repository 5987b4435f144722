// Package runtime evaluates compiled expression trees with the paper's
// extended iterator model: every operator is a pull-based iterator over
// items, evaluation is lazy (compute only what is demanded), and variables
// are lazily memoized sequences — partial results are cached as a
// side-effect of lazy evaluation ("Lazy Memoization").
//
// The package provides two engines over the same compiled form: the
// streaming engine (lazy iterators end to end) and the eager baseline
// (every sub-expression fully materialized), which stands in for the
// tree-walking XSLT-style comparator of the paper's evaluation.
package runtime

import "xqgo/internal/xdm"

// Iter is the item-granularity pull iterator: Next returns the next item of
// the sequence, ok=false at the end. Errors are lazily surfaced — an error
// in a sub-expression that is never pulled is never raised, giving the
// paper's conditional/error semantics for free.
type Iter interface {
	Next() (xdm.Item, bool, error)
}

// iterFunc adapts a closure to Iter.
type iterFunc func() (xdm.Item, bool, error)

func (f iterFunc) Next() (xdm.Item, bool, error) { return f() }

// emptyIter is the empty sequence.
var emptyIter Iter = iterFunc(func() (xdm.Item, bool, error) { return nil, false, nil })

// errIter yields a single error.
func errIter(err error) Iter {
	return iterFunc(func() (xdm.Item, bool, error) { return nil, false, err })
}

// singleIter yields one item.
func singleIter(it xdm.Item) Iter { return &oneIter{it: it} }

type oneIter struct {
	it   xdm.Item
	done bool
}

func (s *oneIter) Next() (xdm.Item, bool, error) {
	if s.done {
		return nil, false, nil
	}
	s.done = true
	return s.it, true, nil
}

// sliceIter iterates a materialized sequence.
type sliceIter struct {
	seq xdm.Sequence
	pos int
}

func newSliceIter(seq xdm.Sequence) *sliceIter { return &sliceIter{seq: seq} }

func (s *sliceIter) Next() (xdm.Item, bool, error) {
	if s.pos >= len(s.seq) {
		return nil, false, nil
	}
	it := s.seq[s.pos]
	s.pos++
	return it, true, nil
}

// NextBatch copies a chunk of the materialized sequence (BatchIter).
func (s *sliceIter) NextBatch(buf []xdm.Item) (int, error) {
	n := copy(buf, s.seq[s.pos:])
	s.pos += n
	return n, nil
}

// remaining implements sizedIter.
func (s *sliceIter) remaining() (int64, bool) { return int64(len(s.seq) - s.pos), true }

// drain materializes an iterator into a sequence.
func drain(it Iter) (xdm.Sequence, error) {
	var out xdm.Sequence
	for {
		x, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, x)
	}
}

// LazySeq is a lazily-materialized, memoizing sequence: the value of a
// variable. Multiple consumers each get an independent cursor; items are
// pulled from the producer at most once and cached — the item-granularity
// equivalent of the paper's buffer-iterator factory.
type LazySeq struct {
	items xdm.Sequence
	src   Iter // nil once exhausted
	err   error
}

// NewLazySeq wraps a producer.
func NewLazySeq(src Iter) *LazySeq { return &LazySeq{src: src} }

// MaterializedSeq wraps an already-computed sequence.
func MaterializedSeq(seq xdm.Sequence) *LazySeq { return &LazySeq{items: seq} }

// at returns the i-th item (0-based), filling the cache as needed.
func (s *LazySeq) at(i int) (xdm.Item, bool, error) {
	for len(s.items) <= i {
		if s.err != nil {
			return nil, false, s.err
		}
		if s.src == nil {
			return nil, false, nil
		}
		it, ok, err := s.src.Next()
		if err != nil {
			s.err = err
			s.src = nil
			return nil, false, err
		}
		if !ok {
			s.src = nil
			return nil, false, nil
		}
		s.items = append(s.items, it)
	}
	return s.items[i], true, nil
}

// Iterator returns a fresh cursor over the sequence.
func (s *LazySeq) Iterator() Iter { return &lazyCursor{seq: s} }

// lazyCursor is one consumer's position in a LazySeq. Batch pulls copy from
// the cache when possible and otherwise pull a whole batch from the
// producer, extending the cache for the other cursors.
type lazyCursor struct {
	seq *LazySeq
	i   int
}

func (c *lazyCursor) Next() (xdm.Item, bool, error) {
	it, ok, err := c.seq.at(c.i)
	if err != nil || !ok {
		return nil, false, err
	}
	c.i++
	return it, true, nil
}

// remaining implements sizedIter, but only once the underlying sequence is
// fully materialized without error — before that the count is unknown and
// producing the items (and surfacing their errors) is required.
func (c *lazyCursor) remaining() (int64, bool) {
	if c.seq.src == nil && c.seq.err == nil {
		return int64(len(c.seq.items) - c.i), true
	}
	return 0, false
}

// NextBatch implements BatchIter.
func (c *lazyCursor) NextBatch(buf []xdm.Item) (int, error) {
	s := c.seq
	if c.i < len(s.items) {
		n := copy(buf, s.items[c.i:])
		c.i += n
		return n, nil
	}
	if s.err != nil {
		return 0, s.err
	}
	if s.src == nil {
		return 0, nil
	}
	n, err := nextBatch(s.src, buf)
	s.items = append(s.items, buf[:n]...)
	c.i += n
	if err != nil {
		s.err = err
		s.src = nil
		return n, err
	}
	if n == 0 {
		s.src = nil
	}
	return n, nil
}

// All materializes the whole sequence (batched pulls from the producer,
// directly into the cache's spare capacity — see drainBatched).
func (s *LazySeq) All() (xdm.Sequence, error) {
	for s.src != nil {
		if len(s.items) == cap(s.items) {
			grown := make(xdm.Sequence, len(s.items), 2*cap(s.items)+batchSize)
			copy(grown, s.items)
			s.items = grown
		}
		win := s.items[len(s.items):cap(s.items)]
		if len(win) > maxBatch {
			win = win[:maxBatch]
		}
		n, err := nextBatch(s.src, win)
		s.items = s.items[:len(s.items)+n]
		if err != nil {
			s.err = err
			s.src = nil
			break
		}
		if n == 0 {
			s.src = nil
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.items, nil
}

// Len materializes and returns the length.
func (s *LazySeq) Len() (int, error) {
	all, err := s.All()
	if err != nil {
		return 0, err
	}
	return len(all), nil
}
