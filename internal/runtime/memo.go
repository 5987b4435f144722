package runtime

import (
	"strings"
	"sync"

	"xqgo/internal/expr"
	"xqgo/internal/xdm"
)

// Function-call memoization — the paper's "Memoization: cache results of
// expressions" slide (intra-query caching; Diao et al. 2004) and open
// problem #4. When Options.MemoizeFunctions is set, calls to *cachable*
// user functions (deterministic bodies that construct no nodes) are cached
// per execution, keyed by the function and its atomized arguments. Calls
// whose arguments contain nodes are evaluated normally: node identity would
// make the cache key unsound across documents.

// memoCache lives on the dynamic context: one cache per execution.
type memoCache struct {
	mu sync.Mutex
	m  map[string]xdm.Sequence
}

func (c *memoCache) get(key string) (xdm.Sequence, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		return nil, false
	}
	v, ok := c.m[key]
	return v, ok
}

func (c *memoCache) put(key string, v xdm.Sequence) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]xdm.Sequence)
	}
	c.m[key] = v
}

// memoizable reports whether a declared function's results may be cached:
// the body must not construct nodes (fresh identities every call) and must
// not call built-ins the registry marks nondeterministic.
func (c *compiler) memoizable(uf *userFunc) bool {
	if expr.CreatesNodes(uf.decl.Body, func(call *expr.Call) bool {
		return c.funcCreatesNodes(call)
	}) {
		return false
	}
	impure := false
	expr.Walk(uf.decl.Body, func(x expr.Expr) bool {
		if call, ok := x.(*expr.Call); ok {
			if f := expr.Builtin(call); f != nil && !f.Props.Deterministic {
				impure = true
				return false
			}
		}
		return true
	})
	return !impure
}

// memoKey builds a cache key from materialized arguments; ok=false when any
// item is a node (uncachable).
func memoKey(fkey string, args []xdm.Sequence) (string, bool) {
	var b strings.Builder
	b.WriteString(fkey)
	for _, arg := range args {
		b.WriteByte('\x01')
		for _, it := range arg {
			a, isAtomic := it.(xdm.Atomic)
			if !isAtomic {
				return "", false
			}
			b.WriteByte('\x02')
			b.WriteString(a.T.String())
			b.WriteByte('|')
			b.WriteString(a.Lexical())
		}
	}
	return b.String(), true
}
