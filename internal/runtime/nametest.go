package runtime

import (
	"sync/atomic"

	"xqgo/internal/expr"
	"xqgo/internal/store"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// stepTest is one compiled axis step: its axis and node test, with the test
// resolved against the name pools of the documents the step last scanned.
// Names are pooled once per document and compared as pool indexes (E9), so
// a scan tests a candidate's name by one integer compare. A plan is shared
// by concurrent executions over documents with different pools: a
// resolution is immutable, and the step keeps one per pool for a few
// pools, so that executions taking turns do not resolve again at each
// reset.
type stepTest struct {
	axis  expr.Axis
	test  *xtypes.NodeTest
	free  *nameRes // the resolution of a test every name passes; nil otherwise
	res   [resSlots]atomic.Pointer[nameRes]
	evict atomic.Uint32 // the next slot a new pool takes when none is free
}

// resSlots is how many pools a step keeps its test resolved against.
const resSlots = 4

func newStepTest(s *expr.Step) *stepTest {
	t := &stepTest{axis: s.Axis, test: &s.Test}
	if t.test.NameFree() {
		t.free = t.newRes(nil, nil)
	}
	return t
}

// nameRes is a step's test resolved against one name pool, for the pool
// indexes below n: an exact name test passes one index (-1 when the pool
// lacks the name), a wildcard the indexes set holds.
type nameRes struct {
	test  *xtypes.NodeTest
	kinds uint8 // bit k: node kind k passes the test's kind part
	free  bool  // every name passes
	none  bool  // no name below n passes
	name  int32
	n     int32
	pool  *store.NamePool
	set   []bool
}

// newRes resolves t against names, the names of pool by index.
func (t *stepTest) newRes(pool *store.NamePool, names []xdm.QName) *nameRes {
	r := &nameRes{test: t.test, pool: pool, n: int32(len(names)), name: -1, none: true}
	principal := t.axis.Principal()
	for k := xdm.DocumentNode; k <= xdm.NamespaceNode; k++ {
		if t.test.MatchesKind(k, principal) {
			r.kinds |= 1 << k
		}
	}
	switch {
	case t.test.NameFree():
		r.free, r.none = true, false
	case t.test.Exact():
		for i := range names {
			if names[i].Equal(t.test.Name) {
				r.name, r.none = int32(i), false
				break
			}
		}
	default:
		r.set = make([]bool, len(names))
		for i := range names {
			if r.set[i] = t.test.MatchesName(names[i]); r.set[i] {
				r.none = false
			}
		}
	}
	return r
}

// resolve returns the step's test resolved against d's name pool: the
// kept resolution while it still answers every name of the pool, else a
// new one, which takes the slot of the pool's last one, a free slot, or
// the next in turn. An exact name once found answers every later index
// too: the pool holds each name once.
func (t *stepTest) resolve(d *store.Document) *nameRes {
	if t.free != nil {
		return t.free
	}
	names := d.PooledNames()
	slot := -1
	for i := range t.res {
		r := t.res[i].Load()
		switch {
		case r == nil:
			if slot < 0 {
				slot = i
			}
		case r.pool == d.Names:
			if int(r.n) == len(names) || r.name >= 0 {
				return r
			}
			slot = i
		}
	}
	if slot < 0 {
		slot = int(t.evict.Add(1) % resSlots)
	}
	r := t.newRes(d.Names, names)
	t.res[slot].Store(r)
	return r
}

// passes tests candidate id of d, of kind k and pool index n. A name
// interned after the resolution (a document still being parsed) is tested
// by its strings.
func (r *nameRes) passes(d *store.Document, id int32, k xdm.NodeKind, n int32) bool {
	switch {
	case r.kinds&(1<<k) == 0:
		return false
	case r.free:
		return true
	case uint32(n) < uint32(r.n):
		if r.set != nil {
			return r.set[n]
		}
		return n == r.name
	case r.name >= 0:
		return false
	}
	return r.test.MatchesName(d.ExpandedName(id))
}
