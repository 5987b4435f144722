// External test package: the equivalence harness needs internal/runtime,
// which now imports internal/optimizer for the join-strategy cost model —
// an in-package test file would be a test-only import cycle.
package optimizer_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xqgo/internal/expr"
	. "xqgo/internal/optimizer"
	"xqgo/internal/runtime"
	"xqgo/internal/serializer"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
	"xqgo/internal/xqparse"
)

// optimize parses a query and runs the optimizer with the given options.
func optimize(t *testing.T, src string, opts Options) *expr.Query {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return Optimize(q, opts)
}

// only returns Options with only the given rules on.
func only(rules ...string) Options {
	var off []string
	for _, r := range AllRules {
		if !slices.Contains(rules, r) {
			off = append(off, r)
		}
	}
	return Disable(off...)
}

func planOf(t *testing.T, src string, opts Options) string {
	t.Helper()
	return expr.String(optimize(t, src, opts).Body)
}

func TestConstFold(t *testing.T) {
	cases := map[string]string{
		`1 + 2 * 3`:                      `7`,
		`-(2 + 3)`:                       `-5`,
		`1 eq 1`:                         `true`,
		`"a" lt "b"`:                     `true`,
		`if (1 eq 1) then "y" else "n"`:  `"y"`,
		`if (false()) then "y" else "n"`: `"n"`,
		`"42" cast as xs:integer`:        `42`,
		`concat("a", "b")`:               `"ab"`,
		`true() and false()`:             `false`,
		`1 eq 2 and $x`:                  `false`, // short-circuit fold
		`1 eq 1 or $x`:                   `true`,
	}
	for src, want := range cases {
		if got := planOf(t, src, only(RuleConstFold)); got != want {
			t.Errorf("const-fold %q = %s, want %s", src, got, want)
		}
	}
	// Error-raising expressions must NOT fold.
	for _, src := range []string{`1 idiv 0`, `"x" cast as xs:integer`} {
		got := planOf(t, src, only(RuleConstFold))
		if !strings.Contains(got, "idiv") && !strings.Contains(got, "cast") {
			t.Errorf("%q folded away a runtime error: %s", src, got)
		}
	}
}

func TestLetFold(t *testing.T) {
	// Single non-loop use: substituted.
	got := planOf(t, `let $x := 1 + $y return $x`, only(RuleLetFold))
	if strings.Contains(got, "let") {
		t.Errorf("single-use let not folded: %s", got)
	}
	// Unused let: dropped.
	got = planOf(t, `let $dead := f($y) return 42`, only(RuleLetFold))
	if strings.Contains(got, "dead") {
		t.Errorf("unused let not dropped: %s", got)
	}
	// Node-constructing let with multiple uses must NOT fold (the paper's
	// ($x, $x) identity example).
	got = planOf(t, `let $x := <a/> return ($x, $x)`, only(RuleLetFold))
	if !strings.Contains(got, "let") {
		t.Errorf("constructor let with 2 uses folded: %s", got)
	}
	// Trivial binding folds regardless of use count.
	got = planOf(t, `let $x := $y return ($x, $x)`, only(RuleLetFold))
	if strings.Contains(got, "let") {
		t.Errorf("trivial let not folded: %s", got)
	}
	// Use inside a loop must not fold an expensive binding.
	got = planOf(t, `let $x := f($y) return for $i in (1,2,3) return $x`, only(RuleLetFold))
	if !strings.Contains(got, "let") {
		t.Errorf("loop-used let folded: %s", got)
	}
	// Dropping the only let under a where clause leaves a placeholder let;
	// dropping that would put it straight back, so it is not a fire.
	tr := NewTrace()
	optimize(t, `let $x := 1 where $y return 2`, Options{Trace: tr})
	if n := tr.Fires()[RuleLetFold]; n != 1 {
		t.Errorf("let-fold fired %d times, want 1: %v", n, tr.Events())
	}
}

func TestFnInline(t *testing.T) {
	got := planOf(t, `declare function local:sq($x) { $x * $x }; local:sq(4)`,
		only(RuleFnInline))
	if strings.Contains(got, "local:sq") || strings.Contains(got, "sq(") {
		t.Errorf("non-recursive function not inlined: %s", got)
	}
	// Recursive functions are never inlined.
	got = planOf(t, `declare function local:f($n) { if ($n le 0) then 0 else local:f($n - 1) }; local:f(3)`,
		only(RuleFnInline))
	if !strings.Contains(got, "f(") {
		t.Errorf("recursive function was inlined: %s", got)
	}
	// Mutually recursive functions are never inlined.
	got = planOf(t, `
	  declare function local:a($n) { local:b($n) };
	  declare function local:b($n) { if ($n le 0) then 0 else local:a($n - 1) };
	  local:a(3)`, only(RuleFnInline))
	if !strings.Contains(got, "a(") && !strings.Contains(got, "b(") {
		t.Errorf("mutually recursive functions inlined: %s", got)
	}
}

func TestFlworUnnest(t *testing.T) {
	src := `for $x in (for $y in $input where $y eq 3 return $y) return $x + 1`
	got := planOf(t, src, only(RuleFlworUnnest))
	// The nested FLWOR in the for-clause input should be gone.
	if strings.Contains(got, "in (for") || strings.Contains(got, "in for") {
		t.Errorf("nested FLWOR not unnested: %s", got)
	}
	// Positional variables block unnesting.
	src2 := `for $x at $i in (for $y in $input return $y) return $i`
	got2 := planOf(t, src2, only(RuleFlworUnnest))
	if !strings.Contains(got2, "at $i") {
		t.Errorf("positional unnest mangled the query: %s", got2)
	}
}

func TestPathOrderAnnotation(t *testing.T) {
	q := optimize(t, `/a/b/c`, only(RulePathOrder))
	count := 0
	expr.Walk(q.Body, func(e expr.Expr) bool {
		if p, ok := e.(*expr.Path); ok && p.NoReorder {
			count++
		}
		return true
	})
	if count == 0 {
		t.Error("/a/b/c should have NoReorder paths")
	}
	// //a//b must keep its sort at the outermost path.
	q2 := optimize(t, `//a//b`, only(RulePathOrder))
	outer := q2.Body.(*expr.Path)
	if outer.NoReorder {
		t.Error("//a//b outer path must keep the reorder step")
	}
	// for-variable paths: for $x in /r/a return $x/b — $x is one node, so
	// $x/b is sorted/distinct.
	q3 := optimize(t, `for $x in /r/a return $x/b`, only(RulePathOrder))
	f := q3.Body.(*expr.Flwor)
	if p, ok := f.Ret.(*expr.Path); !ok || !p.NoReorder {
		t.Errorf("for-variable child path should elide reorder: %s", expr.String(q3.Body))
	}
}

func TestParentElim(t *testing.T) {
	got := planOf(t, `$x/a/..`, only(RuleParentElim))
	if strings.Contains(got, "parent") {
		t.Errorf("$x/a/.. still navigates backwards: %s", got)
	}
	if !strings.Contains(got, "[") {
		t.Errorf("$x/a/.. should become a filter: %s", got)
	}
}

func TestNoNodeIDsMarking(t *testing.T) {
	q := optimize(t, `for $i in (1,2) return <r><nested/></r>`, only(RuleNoNodeIDs))
	marked := 0
	expr.Walk(q.Body, func(e expr.Expr) bool {
		if c, ok := e.(*expr.ElemConstructor); ok && c.NoNodeIDs {
			marked++
		}
		return true
	})
	if marked != 2 {
		t.Errorf("marked %d constructors, want 2 (outer + nested)", marked)
	}
	// Constructors bound to variables are NOT in output position.
	q2 := optimize(t, `let $x := <a/> return count(($x, $x))`, only(RuleNoNodeIDs))
	expr.Walk(q2.Body, func(e expr.Expr) bool {
		if c, ok := e.(*expr.ElemConstructor); ok && c.NoNodeIDs {
			t.Error("variable-bound constructor must not be marked")
		}
		return true
	})
}

func TestCSE(t *testing.T) {
	src := `for $b in $input/book return (count($b/title/text()) , count($b/title/text()))`
	got := planOf(t, src, only(RuleCSE))
	if !strings.Contains(got, "cse") {
		t.Errorf("duplicate subtree not factored: %s", got)
	}
	// Node-creating expressions must not be factored.
	src2 := `for $b in $input return (<a/>, <a/>)`
	got2 := planOf(t, src2, only(RuleCSE))
	if strings.Contains(got2, "cse") {
		t.Errorf("constructors must not be CSE'd: %s", got2)
	}
}

// cseTwoCalls has four duplicated candidates: two calls and the path inside
// each. Picking one at random gave 7 plans in 50 runs, some with a call left
// to run twice.
const cseTwoCalls = `declare variable $d external; for $x in (1, 2) return (count($d/a/b/c) + count($d/a/b/c), sum($d/c/d/e) + sum($d/c/d/e), $x)`

func TestCSEDeterministic(t *testing.T) {
	first := planOf(t, cseTwoCalls, Options{})
	for i := 0; i < 50; i++ {
		if got := planOf(t, cseTwoCalls, Options{}); got != first {
			t.Fatalf("run %d gave another plan:\n %s\n %s", i, got, first)
		}
	}
	for _, call := range []string{"count(", "sum("} {
		if n := strings.Count(first, call); n != 1 {
			t.Errorf("%s appears %d times, want once (bound by a let): %s", call, n, first)
		}
	}
}

// cseFocus repeats a call that reads the focus (string() and local-name()
// without an argument) inside a path step. Factored out of the step, it
// would read the FLWOR's focus instead of $x's children.
const cseFocus = `for $x in /r/* return $x/(concat(string(), "-", local-name(), "-", string()), concat(string(), "-", local-name(), "-", string()))`

func TestCSEKeepsFocusReads(t *testing.T) {
	tr := NewTrace()
	plan := planOf(t, cseFocus, Options{Trace: tr})
	if n := tr.Fires()[RuleCSE]; n != 0 {
		t.Errorf("cse fired %d times: %s", n, plan)
	}
	doc, err := xmlparse.ParseString(`<r><a>hello<b>world</b></a><c>tail</c></r>`, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var results []string
	for _, opt := range []bool{false, true} {
		q := optimize(t, cseFocus, Disable(AllRules...))
		if opt {
			q = optimize(t, cseFocus, Options{})
		}
		p, err := runtime.Compile(q, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := p.Eval(&runtime.Dynamic{ContextItem: doc.RootNode()})
		if err != nil {
			t.Fatal(err)
		}
		s, err := serializer.SequenceToString(seq)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, s)
	}
	if results[1] != results[0] {
		t.Errorf("optimized %q, unoptimized %q", results[1], results[0])
	}
}

// equivalenceCorpus is TestOptimizerEquivalence's corpus; the plan golden
// and FuzzOptimize start from it too.
var equivalenceCorpus = []string{
	`count(/r/a)`,
	`/r/a/b`,
	`//b`,
	`//a/b`,
	`string-join(for $b in //b return string($b), ",")`,
	`for $x in /r/a let $n := count($x/b) where $n ge 1 return concat($x/@id, ":", $n)`,
	`let $u := "unused" return 7`,
	`declare function local:f($v) { $v * 3 }; local:f(2) + local:f(3)`,
	`for $x in (for $y in /r/a return $y/b) return string($x)`,
	`<out>{for $a in /r/a return <copy id="{$a/@id}">{count($a/b)}</copy>}</out>`,
	`/r/a/..`,
	`(1 + 2) * (1 + 2)`,
	`some $b in //b satisfies string($b) eq "z"`,
	`for $a in /r/a order by string($a/@id) descending return string($a/@id)`,
	`(//b)[2]/string(.)`,
	`(count(//b) treat as xs:integer) + 1`,
	`for $a in /r/a group by $k := count($a/b) order by $k return concat($k, "=", count($a))`,
	`try { sum(for $b in //b return string-length($b)) } catch * { -1 }`,
	`element wrap { attribute n { count(//b) }, //c }`,
	`(//b)[position() le 2]/string(.)`,
	`/r/a/b[position() lt 2]/string(.)`,
	`(//b)[2 ge position()][position() gt 1]/string(.)`,
	`(//b)[position() = (2 to 3)]/string(.)`,
	`(//b)[position() ge 2 and position() le 2]/string(.)`,
	`count((//b)[position() eq 2.5])`,
	`(//b)[position() le 1e0]/string(.)`,
	`count((//b)[position() gt 0])`,
	`(//b)[position() ne 1]/string(.)`,
	`(//b)[position() = last()]/string(.)`,
	`try { (//b, error())[position() le 1] } catch * { "caught" }`,
}

// TestOptimizerEquivalence is the differential harness: a corpus of queries
// is evaluated with the optimizer off and with every rule on (both
// engines); all four results must agree.
func TestOptimizerEquivalence(t *testing.T) {
	const doc = `<r><a id="1"><b>x</b><b>y</b></a><a id="2"><b>z</b></a><c>lone</c></r>`
	parsed, err := xmlparse.ParseString(doc, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dyn := func() *runtime.Dynamic {
		return &runtime.Dynamic{ContextItem: parsed.RootNode()}
	}
	for _, src := range equivalenceCorpus {
		src := src
		t.Run(src, func(t *testing.T) {
			var results []string
			for _, mode := range []struct {
				opt   bool
				eager bool
			}{
				{false, false}, {true, false}, {false, true}, {true, true},
			} {
				q, err := xqparse.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				if mode.opt {
					q = Optimize(q, Options{})
				}
				p, err := runtime.Compile(q, runtime.Options{Eager: mode.eager})
				if err != nil {
					t.Fatalf("compile (opt=%v eager=%v): %v", mode.opt, mode.eager, err)
				}
				seq, err := p.Eval(dyn())
				if err != nil {
					t.Fatalf("eval (opt=%v eager=%v): %v", mode.opt, mode.eager, err)
				}
				s, err := serializer.SequenceToString(seq)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, s)
			}
			for i := 1; i < len(results); i++ {
				if results[i] != results[0] {
					t.Errorf("mode %d disagrees:\n base %q\n got  %q", i, results[0], results[i])
				}
			}
		})
	}
}

// contractCorpus is TestRuleContract's corpus.
var contractCorpus = []string{
	`let $x := $a + 1 return $x * $x`,
	`for $x in (for $y in $src return $y) return $x`,
	`declare function local:g($v) { $v + $w }; local:g($a)`,
}

// TestRuleContract checks the paper's rewriting-rule contract: free
// variables of the rewritten expression are a subset of the original's.
func TestRuleContract(t *testing.T) {
	for _, src := range contractCorpus {
		orig, err := xqparse.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		before := expr.FreeVars(orig.Body)
		// Inlining can surface a function body's free variables in the
		// main expression; they were already free in the query as a whole.
		for i := range orig.Funcs {
			bodyFree := expr.FreeVars(orig.Funcs[i].Body)
			for v := range bodyFree {
				before[v] = true
			}
		}
		opt, err := xqparse.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		opt = Optimize(opt, Options{})
		after := expr.FreeVars(opt.Body)
		for v := range after {
			if !before[v] && !strings.Contains(v, "urn:xqgo") {
				t.Errorf("%q: rewrite introduced free variable %s", src, v)
			}
		}
	}
}

func TestDisableAndOnly(t *testing.T) {
	d := Disable(RuleConstFold)
	if !d.Disabled[RuleConstFold] || d.Disabled[RuleLetFold] {
		t.Error("Disable")
	}
	o := only(RuleConstFold)
	if o.Disabled[RuleConstFold] || !o.Disabled[RuleLetFold] {
		t.Error("only")
	}
	// NoOptimize equivalent: everything disabled leaves the tree unchanged.
	src := `1 + 2`
	got := planOf(t, src, Disable(AllRules...))
	if got != `(1 + 2)` {
		t.Errorf("all-disabled changed the tree: %s", got)
	}
}

func TestOptimizeIsIdempotentish(t *testing.T) {
	src := `declare function local:sq($x) { $x * $x };
	  for $b in $in/book let $t := $b/title where local:sq(2) eq 4 return ($t, $t)`
	q1 := optimize(t, src, Options{})
	s1 := expr.String(q1.Body)
	q2 := Optimize(q1, Options{})
	s2 := expr.String(q2.Body)
	if countRune(s2, '$') > countRune(s1, '$')+4 {
		t.Errorf("re-optimization keeps growing:\n1: %s\n2: %s", s1, s2)
	}
}

func countRune(s string, r rune) int {
	n := 0
	for _, c := range s {
		if c == r {
			n++
		}
	}
	return n
}

var _ = xdm.NewInteger // keep the import for helpers below if unused

func TestTypeRewrite(t *testing.T) {
	// treat over a statically known integer disappears.
	got := planOf(t, `(3 treat as xs:integer) + 1`, only(RuleTypeRewrite))
	if strings.Contains(got, "treat") {
		t.Errorf("redundant treat kept: %s", got)
	}
	// instance-of folds to true when guaranteed.
	got = planOf(t, `count($x) instance of xs:integer`, only(RuleTypeRewrite))
	if got != "true" {
		t.Errorf("guaranteed instance-of not folded: %s", got)
	}
	// Possibly-failing treats stay.
	got = planOf(t, `$x treat as xs:integer`, only(RuleTypeRewrite))
	if !strings.Contains(got, "treat") {
		t.Errorf("needed treat removed: %s", got)
	}
	// Constructed element matches element(name).
	got = planOf(t, `<a/> instance of element(a)`, only(RuleTypeRewrite))
	if got != "true" {
		t.Errorf("constructor instance-of not folded: %s", got)
	}
	// A path that ends in atomics is not a node sequence.
	got = planOf(t, `($x/a/string()) instance of node()*`, only(RuleTypeRewrite))
	if got == "true" {
		t.Errorf("atomic path typed as nodes: %s", got)
	}
	// Not-guaranteed instance-of stays.
	got = planOf(t, `$x instance of element(a)`, only(RuleTypeRewrite))
	if !strings.Contains(got, "instance of") {
		t.Errorf("uncertain instance-of folded: %s", got)
	}
}

func TestInferBasics(t *testing.T) {
	cases := map[string]string{
		`3`:                        "xs:integer",
		`"s"`:                      "xs:string",
		`(1, 2, 3)`:                "xs:integer+",
		`()`:                       "empty-sequence()",
		`1 to 5`:                   "xs:integer*",
		`1 + 2`:                    "xs:integer",
		`<a/>`:                     "element(a)",
		`attribute b {1}`:          "attribute(b)",
		`if (1) then 1 else ()`:    "xs:integer?",
		`count($x)`:                "xs:integer",
		`for $i in (1,2) return 3`: "xs:integer*",
		`$x/a/string()`:            "xs:string*",
		`$x/a/local:f(.)`:          "item()*",
		`$x/a/.`:                   "node()*",
		`$x/(a, b)`:                "node()*",
	}
	for src, want := range cases {
		q, err := xqparse.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if got := expr.Infer(q.Body, nil).String(); got != want {
			t.Errorf("Infer(%q) = %s, want %s", src, got, want)
		}
	}
}

// TestOptimizeAllocGuard bounds the allocations of Optimize (traced, as
// xqgo.Compile runs it) on three fixed queries at a third of what the
// parent of this guard's commit allocated. It counts, not times: no
// wall-clock assertion outside bench/.
func TestOptimizeAllocGuard(t *testing.T) {
	for _, c := range []struct {
		name   string
		src    string
		parent float64 // allocations per Optimize before the change-reporting driver
	}{
		{"smallest template", genTemplate(rand.New(rand.NewSource(1)), 0), 13820},
		{"24 functions nested 4 deep", genTemplate(rand.New(rand.NewSource(1)), 83), 74133},
		{"paper FLWOR", paperCorpus[len(paperCorpus)-1], 134},
	} {
		parse := testing.AllocsPerRun(20, func() { xqparse.Parse(c.src) })
		both := testing.AllocsPerRun(20, func() {
			q, _ := xqparse.Parse(c.src)
			Optimize(q, Options{Trace: NewTrace()})
		})
		if got := both - parse; got > c.parent/3 {
			t.Errorf("%s: Optimize allocates %.0f times, want at most %.0f (a third of %.0f)",
				c.name, got, c.parent/3, c.parent)
		}
	}
}
