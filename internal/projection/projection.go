// Package projection implements static XML projection (Marian & Siméon's
// "Projecting XML documents", and the buffer-minimization line of Koch et
// al.): a query's statically-derived path set is compiled into a small
// automaton the parser consults while ingesting a document, so subtrees no
// path can touch are tokenized but never materialized. The package is
// deliberately self-contained (no store/expr imports): the optimizer
// produces a Paths value, the parser runs a Runner over it.
package projection

import "strings"

// Step is one step of a projection path, matched against element names.
type Step struct {
	// AnyDepth marks a descendant step (//): the step matches at any depth
	// below the previous match instead of only at the next level.
	AnyDepth bool
	// Name-test fields, mirroring the path-step tests the optimizer sees:
	// exact (Space, Local), namespace wildcard (*:local), local wildcard
	// (ns:*) or any name (*).
	Space, Local         string
	WildSpace, WildLocal bool
	Any                  bool
}

// match reports whether the step's name test accepts an element name.
func (s Step) match(space, local string) bool {
	switch {
	case s.Any:
		return true
	case s.WildSpace:
		return local == s.Local
	case s.WildLocal:
		return space == s.Space
	default:
		return space == s.Space && local == s.Local
	}
}

func (s Step) String() string {
	var b strings.Builder
	if s.AnyDepth {
		b.WriteString("//")
	} else {
		b.WriteString("/")
	}
	switch {
	case s.Any:
		b.WriteString("*")
	case s.WildSpace:
		b.WriteString("*:" + s.Local)
	case s.WildLocal:
		b.WriteString("{" + s.Space + "}*")
	default:
		if s.Space != "" {
			b.WriteString("{" + s.Space + "}")
		}
		b.WriteString(s.Local)
	}
	return b.String()
}

// Path is one root path of the projection: a step sequence anchored at the
// document root. Elements along the way are materialized as traversal
// nodes; elements matching the full path are targets. With KeepSubtree set
// the entire subtree below each target is retained (the query uses the
// target's content — string value, serialization, copy); without it only
// the target node itself (plus its attributes) is needed.
type Path struct {
	Steps       []Step
	KeepSubtree bool
}

func (p Path) String() string {
	var b strings.Builder
	if len(p.Steps) == 0 {
		b.WriteString("/")
	}
	for _, s := range p.Steps {
		b.WriteString(s.String())
	}
	if p.KeepSubtree {
		b.WriteString("#")
	}
	return b.String()
}

// Paths is the static projection of a query. The zero value keeps
// everything; use New to start an empty projectable set.
type Paths struct {
	// KeepAll disables projection: the analysis found a construct whose
	// node needs cannot be bounded statically (reverse axes at the root,
	// fn:id, recursive user functions, unknown expressions).
	KeepAll bool
	List    []Path
}

// New returns an empty, projectable path set.
func New() *Paths { return &Paths{} }

// KeepEverything returns the "no projection" sentinel.
func KeepEverything() *Paths { return &Paths{KeepAll: true} }

// Add appends a path, deduplicating exact step matches (keep flags are
// OR-ed).
func (p *Paths) Add(path Path) {
	for i := range p.List {
		if samePathSteps(p.List[i].Steps, path.Steps) {
			p.List[i].KeepSubtree = p.List[i].KeepSubtree || path.KeepSubtree
			return
		}
	}
	p.List = append(p.List, path)
}

func samePathSteps(a, b []Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Projectable reports whether this path set can actually prune anything:
// a nil set, a KeepAll set, and a set whose root path keeps the whole
// subtree all mean "parse everything".
func (p *Paths) Projectable() bool {
	if p == nil || p.KeepAll {
		return false
	}
	for _, path := range p.List {
		if len(path.Steps) == 0 && path.KeepSubtree {
			return false
		}
	}
	return true
}

// String renders the set for diagnostics/tests: sorted-insertion order,
// space-separated, "#" marking keep-subtree targets.
func (p *Paths) String() string {
	if p == nil || p.KeepAll {
		return "*keep-all*"
	}
	parts := make([]string, len(p.List))
	for i, path := range p.List {
		parts[i] = path.String()
	}
	return strings.Join(parts, " ")
}

// Action is the Runner's verdict for one StartElement event.
type Action uint8

const (
	// Keep materializes the element (and its attributes); children are
	// decided individually.
	Keep Action = iota
	// KeepSubtree materializes the element and everything below it with no
	// further state computation.
	KeepSubtree
	// Skip drops the whole subtree: the caller must consume tokens up to
	// the matching end tag without materializing anything, and must NOT
	// call EndElement on the runner for this element.
	Skip
	// Target is Keep for an element that completes a path whose subtree is
	// not kept: a parser materializes it like any Keep, a consumer that acts
	// on matches (the streaming evaluator's nested windows) tells it from an
	// element that is merely on the way to one.
	Target
)

// state is one NFA state: step s of path p is the next step to match.
type state struct{ p, s int32 }

// Runner evaluates the projection automaton against a depth-first element
// stream. It is not safe for concurrent use; the parser owns it.
type Runner struct {
	paths []Path
	// Flat state-set stack: states holds the concatenated sets, marks the
	// start offset of the set for each open (materialized) element. The
	// set on top applies to children of the current element.
	states []state
	marks  []int32
	// keepDepth > 0: inside a keep-subtree region, counted by nesting.
	keepDepth int
}

// NewRunner compiles a path set into a runner. Returns nil when the set is
// not projectable (callers treat a nil runner as "keep everything").
func NewRunner(p *Paths) *Runner {
	if !p.Projectable() {
		return nil
	}
	r := &Runner{paths: p.List}
	// Initial state set: the document root's children are matched against
	// the first step of every non-empty path.
	r.marks = append(r.marks, 0)
	for i := range r.paths {
		if len(r.paths[i].Steps) > 0 {
			r.states = append(r.states, state{p: int32(i), s: 0})
		}
	}
	return r
}

// StartElement decides the fate of an element: the element stream must be
// the document's elements in document order, with EndElement called for
// every element that was NOT skipped.
func (r *Runner) StartElement(space, local string) Action {
	if r.keepDepth > 0 {
		r.keepDepth++
		return KeepSubtree
	}
	top := r.marks[len(r.marks)-1]
	cur := r.states[top:]
	next := len(r.states) // build the child set in place at the top
	matched := false
	for _, st := range cur {
		steps := r.paths[st.p].Steps
		step := steps[st.s]
		if step.AnyDepth {
			// A descendant step survives into the child context: it may
			// still match deeper.
			r.states = append(r.states, st)
		}
		if step.match(space, local) {
			if int(st.s)+1 == len(steps) {
				matched = true
				if r.paths[st.p].KeepSubtree {
					// Target with content: whole subtree retained. Unwind
					// the speculative child set and switch to depth
					// counting.
					r.states = r.states[:next]
					r.keepDepth = 1
					return KeepSubtree
				}
				// Target without content: the node itself is enough.
				continue
			}
			r.states = append(r.states, state{p: st.p, s: st.s + 1})
		}
	}
	if !matched && len(r.states) == next {
		// No path reaches this element or anything below it.
		return Skip
	}
	r.marks = append(r.marks, int32(next))
	if matched {
		return Target
	}
	return Keep
}

// EndElement closes the innermost kept element.
func (r *Runner) EndElement() {
	if r.keepDepth > 0 {
		r.keepDepth--
		return
	}
	top := r.marks[len(r.marks)-1]
	r.marks = r.marks[:len(r.marks)-1]
	r.states = r.states[:top]
}

// KeepingContent reports whether character data, comments and processing
// instructions at the current position must be materialized. Outside
// keep-subtree regions only element structure (and attributes) is needed:
// traversal and empty-target elements never contribute text to the result.
func (r *Runner) KeepingContent() bool { return r.keepDepth > 0 }
