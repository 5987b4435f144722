package projection

import (
	"fmt"
	"strings"
	"testing"
)

// el is an element of a test document; "n|a" names local a in namespace n.
type el struct {
	name string
	kids []el
}

func e(name string, kids ...el) el { return el{name, kids} }

func splitName(name string) (space, local string) {
	if i := strings.IndexByte(name, '|'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

func (a Action) String() string {
	return [...]string{"Keep", "KeepSubtree", "Skip", "Target"}[a]
}

// drive runs r over the tree the way a parser must: a skipped element's
// subtree is not shown to the runner and its end is not reported. It returns
// one "path=Verdict" line per element the runner was asked about, with "+"
// appended where content is kept after the start tag.
func drive(r *Runner, root el) []string {
	var out []string
	var walk func(x el, path string)
	walk = func(x el, path string) {
		path += "/" + x.name
		act := r.StartElement(splitName(x.name))
		line := path + "=" + act.String()
		if act == Skip {
			out = append(out, line)
			return
		}
		if r.KeepingContent() {
			line += "+"
		}
		out = append(out, line)
		for _, k := range x.kids {
			walk(k, path)
		}
		r.EndElement()
	}
	walk(root, "")
	return out
}

func steps(spec ...string) []Step {
	var out []Step
	for _, s := range spec {
		st := Step{AnyDepth: strings.HasPrefix(s, "//")}
		s = strings.TrimLeft(s, "/")
		space, local := splitName(s)
		switch {
		case s == "*":
			st.Any = true
		case space == "*":
			st.WildSpace, st.Local = true, local
		case local == "*":
			st.WildLocal, st.Space = true, space
		default:
			st.Space, st.Local = space, local
		}
		out = append(out, st)
	}
	return out
}

func TestRunnerVerdicts(t *testing.T) {
	for _, c := range []struct {
		name  string
		paths []Path
		doc   el
		want  []string
	}{
		{
			name:  "child steps keep the target's subtree; Skip needs no EndElement",
			paths: []Path{{Steps: steps("/a", "/b"), KeepSubtree: true}},
			doc:   e("a", e("b", e("x", e("b"))), e("c", e("b")), e("b")),
			want: []string{"/a=Keep", "/a/b=KeepSubtree+", "/a/b/x=KeepSubtree+", "/a/b/x/b=KeepSubtree+",
				"/a/c=Skip", "/a/b=KeepSubtree+"},
		},
		{
			name:  "without KeepSubtree a match is a Target and its children are judged on their own",
			paths: []Path{{Steps: steps("/a", "/b")}},
			doc:   e("a", e("b", e("x")), e("c")),
			want:  []string{"/a=Keep", "/a/b=Target", "/a/b/x=Skip", "/a/c=Skip"},
		},
		{
			name:  "root that no path reaches",
			paths: []Path{{Steps: steps("/a", "/b"), KeepSubtree: true}},
			doc:   e("z", e("a", e("b"))),
			want:  []string{"/z=Skip"},
		},
		{
			name:  "descendant step: nested matches under a descendant spine",
			paths: []Path{{Steps: steps("//s")}},
			doc:   e("d", e("s", e("t", e("s")), e("s")), e("u")),
			want:  []string{"/d=Keep", "/d/s=Target", "/d/s/t=Keep", "/d/s/t/s=Target", "/d/s/s=Target", "/d/u=Keep"},
		},
		{
			name:  "descendant step below a child step, then a child step",
			paths: []Path{{Steps: steps("/r", "//a", "/b")}},
			doc:   e("r", e("a", e("b", e("a", e("b")))), e("b")),
			want: []string{"/r=Keep", "/r/a=Keep", "/r/a/b=Target", "/r/a/b/a=Keep", "/r/a/b/a/b=Target",
				"/r/b=Keep"},
		},
		{
			name:  "descendant step with KeepSubtree stops matching inside the kept subtree",
			paths: []Path{{Steps: steps("//s"), KeepSubtree: true}},
			doc:   e("d", e("s", e("s")), e("t")),
			want:  []string{"/d=Keep", "/d/s=KeepSubtree+", "/d/s/s=KeepSubtree+", "/d/t=Keep"},
		},
		{
			name:  "wildcards",
			paths: []Path{{Steps: steps("/*", "/*|b", "/n|*"), KeepSubtree: true}},
			doc:   e("x", e("m|b", e("n|q"), e("q"), e("m|q")), e("c", e("n|q"))),
			want: []string{"/x=Keep", "/x/m|b=Keep", "/x/m|b/n|q=KeepSubtree+", "/x/m|b/q=Skip", "/x/m|b/m|q=Skip",
				"/x/c=Skip"},
		},
		{
			name:  "namespace steps: a name matches in its own namespace only",
			paths: []Path{{Steps: steps("/n|a", "/b")}},
			doc:   e("n|a", e("b"), e("n|b")),
			want:  []string{"/n|a=Keep", "/n|a/b=Target", "/n|a/n|b=Skip"},
		},
		{
			name:  "the same name in no namespace is another element",
			paths: []Path{{Steps: steps("/n|a", "/b")}},
			doc:   e("a", e("b")),
			want:  []string{"/a=Skip"},
		},
		{
			name: "two paths: the kept subtree wins over a plain match, the union decides Skip",
			paths: []Path{
				{Steps: steps("/a", "/b")},
				{Steps: steps("/a", "/b"), KeepSubtree: true},
				{Steps: steps("/a", "/c", "/d")},
			},
			doc:  e("a", e("b", e("x")), e("c", e("d"), e("x")), e("e")),
			want: []string{"/a=Keep", "/a/b=KeepSubtree+", "/a/b/x=KeepSubtree+", "/a/c=Keep", "/a/c/d=Target", "/a/c/x=Skip", "/a/e=Skip"},
		},
	} {
		r := NewRunner(&Paths{List: c.paths})
		if r == nil {
			t.Fatalf("%s: not projectable", c.name)
		}
		if got := drive(r, c.doc); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s:\n got  %v\n want %v", c.name, got, c.want)
		}
		if r.KeepingContent() || len(r.marks) != 1 || len(r.states) > len(c.paths) {
			t.Errorf("%s: runner not back at its initial state: keep=%v marks=%v states=%v",
				c.name, r.KeepingContent(), r.marks, r.states)
		}
	}
}

func TestNotProjectable(t *testing.T) {
	for _, p := range []*Paths{nil, KeepEverything(), {List: []Path{{KeepSubtree: true}}}} {
		if NewRunner(p) != nil {
			t.Errorf("%v: got a runner, want nil (keep everything)", p)
		}
	}
	if NewRunner(New()) == nil {
		t.Error("the empty set keeps nothing: it must have a runner")
	}
}

// ---- reference matcher and fuzzing ----

type qname struct{ space, local string }

// live reports whether step s of path is the next to match below the element
// whose ancestor-or-self names are anc: walking the ancestor list, the step
// before it matched the last name, or s is a descendant step that was already
// waiting one level up.
func live(path []Step, s int, anc []qname) bool {
	if len(anc) == 0 {
		return s == 0
	}
	up, last := anc[:len(anc)-1], anc[len(anc)-1]
	return path[s].AnyDepth && live(path, s, up) ||
		s > 0 && live(path, s-1, up) && path[s-1].match(last.space, last.local)
}

// matches reports whether the element completes path.
func matches(path []Step, anc []qname) bool {
	n, last := len(path), anc[len(anc)-1]
	return n > 0 && live(path, n-1, anc[:len(anc)-1]) && path[n-1].match(last.space, last.local)
}

// refAction is the verdict the ancestor list alone implies.
func refAction(paths []Path, anc []qname) Action {
	matched, onTheWay := false, false
	for _, p := range paths {
		for k := 1; k <= len(anc); k++ {
			if p.KeepSubtree && matches(p.Steps, anc[:k]) {
				return KeepSubtree
			}
		}
		matched = matched || matches(p.Steps, anc)
		for s := range p.Steps {
			onTheWay = onTheWay || live(p.Steps, s, anc)
		}
	}
	switch {
	case matched:
		return Target
	case onTheWay:
		return Keep
	}
	return Skip
}

// gen decodes fuzz bytes; it yields zeros once they run out.
type gen struct{ data []byte }

func (g *gen) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

var fuzzNames = [...]qname{{"", "a"}, {"", "b"}, {"n", "a"}, {"n", "c"}}

func (g *gen) paths() []Path {
	list := make([]Path, 1+g.next()%3)
	for i := range list {
		b := g.next()
		list[i].KeepSubtree = b&1 != 0
		for n := b >> 1 % 4; n > 0; n-- {
			b := g.next()
			name := fuzzNames[b>>3%4]
			st := Step{AnyDepth: b&1 != 0}
			switch b >> 1 % 4 {
			case 0:
				st.Space, st.Local = name.space, name.local
			case 1:
				st.WildSpace, st.Local = true, name.local
			case 2:
				st.WildLocal, st.Space = true, name.space
			case 3:
				st.Any = true
			}
			list[i].Steps = append(list[i].Steps, st)
		}
	}
	return list
}

func FuzzRunner(f *testing.F) {
	f.Add([]byte{0, 5, 0, 2, 1, 4, 0, 4, 3, 3})
	f.Add([]byte{1, 2, 1, 4, 1, 3, 1, 1, 3, 1, 4, 0, 3})
	f.Add([]byte{2, 7, 6, 0, 8, 2, 9, 10, 24, 1, 1, 16, 3, 24, 3, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &gen{data: data}
		paths := g.paths()
		r := NewRunner(&Paths{List: paths})
		if r == nil {
			return
		}
		// The rest of the input is the document: a byte divisible by 3 closes
		// the innermost element, any other opens one. skipped counts the open
		// elements below (and including) one the runner asked to skip.
		var anc []qname
		skipped := 0
		closeOne := func() {
			switch {
			case skipped > 0:
				skipped--
			default:
				r.EndElement()
			}
			anc = anc[:len(anc)-1]
		}
		for len(g.data) > 0 {
			b := g.next()
			if b%3 == 0 || len(anc) == 12 {
				if len(anc) > 0 {
					closeOne()
				}
				continue
			}
			name := fuzzNames[b>>2%4]
			anc = append(anc, name)
			if skipped > 0 {
				skipped++
				continue
			}
			got, want := r.StartElement(name.space, name.local), refAction(paths, anc)
			if got != want {
				t.Fatalf("paths %v, element %v: runner says %v, ancestor list says %v", paths, anc, got, want)
			}
			if got == Skip {
				skipped = 1
			} else if r.KeepingContent() != (got == KeepSubtree) {
				t.Fatalf("paths %v, element %v: KeepingContent = %v after %v", paths, anc, r.KeepingContent(), got)
			}
		}
		for len(anc) > 0 {
			closeOne()
		}
		if r.KeepingContent() || len(r.marks) != 1 {
			t.Fatalf("paths %v: runner not back at its initial state (marks %v)", paths, r.marks)
		}
	})
}
