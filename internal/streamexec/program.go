package streamexec

import (
	"strings"

	"xqgo/internal/expr"
	"xqgo/internal/projection"
	"xqgo/internal/runtime"
)

// Program is the compiled streaming form of one query: the classification,
// the spine automaton's steps, and (for non-identity plans) the residual
// plan evaluated once per window. Compile always returns a Program — a
// store-required one simply records why, and executors fall back.
type Program struct {
	class  Class
	reason string

	spine     []projection.Step
	childOnly bool
	// residual is the per-window plan (nil for identity plans). Compiled
	// without profile hooks: stream counters are maintained by the Runner,
	// and plan-level operator ids must not clash with the main plan's.
	residual *runtime.Prepared
}

// Class returns the streamability classification.
func (p *Program) Class() Class { return p.class }

// Reason explains a store-required classification (empty when streamable).
func (p *Program) Reason() string { return p.reason }

// Streamable reports whether the program runs on the event automaton.
func (p *Program) Streamable() bool { return p.class.Streamable() }

// SpineString renders the spine for diagnostics ("/Order/OrderLine").
func (p *Program) SpineString() string {
	var b strings.Builder
	for _, s := range p.spine {
		b.WriteString(s.String())
	}
	return b.String()
}

// Compile analyzes an optimized query and, when streamable, compiles its
// residual. ro is the store engine's option set for the same query: the
// residual inherits its evaluation-strategy flags so per-window results
// match the fallback engine exactly.
func Compile(q *expr.Query, ro runtime.Options) *Program {
	if p := classify(q); p != nil {
		return p
	}
	d, ok, why := analyzeBody(q.Body)
	if !ok {
		return &Program{class: StoreRequired, reason: why}
	}
	if len(d.spine) == 0 {
		return &Program{class: StoreRequired, reason: "no spine: the whole document is one window"}
	}
	prog := &Program{spine: d.spine, childOnly: d.childOnly()}
	if d.residual == nil {
		// Identity plan: windows are the result. Disjoint (child-only)
		// windows forward tokens directly; descendant spines can nest
		// windows inside each other, so inner ones buffer until the
		// outermost closes.
		if prog.childOnly {
			prog.class = FullyStreamable
		} else {
			prog.class = BoundedBuffer
		}
		return prog
	}
	if !prog.childOnly {
		return &Program{class: StoreRequired,
			reason: "descendant spine with a per-window expression: windows can nest"}
	}
	if why := checkResidualRoot(d.residual); why != "" {
		return &Program{class: StoreRequired, reason: why}
	}
	rq := &expr.Query{
		Namespaces:    q.Namespaces,
		DefaultElemNS: q.DefaultElemNS,
		DefaultFuncNS: q.DefaultFuncNS,
		Body:          d.residual,
	}
	for _, v := range q.Vars {
		if v.Init == nil {
			rq.Vars = append(rq.Vars, v) // externals pass through via Env.Vars
		}
	}
	// The residual keeps its profile hooks: unprofiled windows pay one nil
	// check per operator instantiation, while profiled stream runs get real
	// per-operator rows (counted under a residual-sized profile — see
	// Runner.finishProfile — because operator ids are plan-specific).
	res, err := runtime.Compile(rq, runtime.Options{Eager: ro.Eager})
	if err != nil {
		return &Program{class: StoreRequired, reason: "residual compile: " + err.Error()}
	}
	prog.class = BoundedBuffer
	prog.residual = res
	return prog
}

// ResidualProfile creates a counters profile sized for the residual plan's
// operators, or nil for identity plans (no residual to profile). Runners use
// it so residual executions never index a profile sized for a different plan.
func (p *Program) ResidualProfile() *runtime.Profile {
	if p.residual == nil {
		return nil
	}
	return p.residual.NewProfile(false)
}

// classify rejects prolog features the streaming evaluator does not model.
// nil means "keep analyzing".
func classify(q *expr.Query) *Program {
	if len(q.Funcs) > 0 {
		return &Program{class: StoreRequired, reason: "user-defined functions"}
	}
	for _, v := range q.Vars {
		if v.Init != nil {
			return &Program{class: StoreRequired,
				reason: "prolog variable initializer may scan the document"}
		}
	}
	return nil
}
