package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// adhocLiteral is the fixed-width placeholder every generated query ends
// with. The measured loop overwrites its digits in the pre-serialised request
// so that no two requests carry the same query text.
const adhocLiteral = "9999999999"

// adhocQuery is one generated query: its text (ending in the placeholder
// literal) and the result the generator worked out for it while writing it.
type adhocQuery struct {
	text string
	// base is the serialized result without the trailing literal item,
	// including the separating space.
	base string
}

const adhocMod = 9973

// adhocFunc is one declared local: function: its XQuery body and the same
// function in Go.
type adhocFunc struct {
	body string
	eval func(x int64) int64
	cost int // calls made per invocation, itself included
}

// genAdhoc writes the k-th query over the bibliography whose years are given:
// 4 to 24 declared functions, a let-chain with repeated sub-expressions, and
// a FLWOR nested 1 to 4 deep. The two sizes follow k, so that every seed's
// pool has the same mix of small and large queries; the seed decides
// everything else. Every value is a non-negative integer below adhocMod, so
// the generator can evaluate the query as it writes it.
func genAdhoc(rng *rand.Rand, k int, years []int) adhocQuery {
	var sb strings.Builder
	nf := 4 + k%21
	funcs := make([]adhocFunc, 0, nf)
	for i := 0; i < nf; i++ {
		f := genAdhocFunc(rng, funcs)
		funcs = append(funcs, f)
		fmt.Fprintf(&sb, "declare function local:f%d($x as xs:integer) as xs:integer {\n  %s\n};\n", i, f.body)
	}
	pick := func() int { return rng.Intn(len(funcs)) }

	// let-chain: two generator-known counts over the document, then values
	// built from repeated calls (common sub-expressions) and single-use lets.
	y := 1980 + rng.Intn(25)
	var n, m int64
	for _, yr := range years {
		if yr >= y {
			n++
		}
		if yr == y {
			m++
		}
	}
	fmt.Fprintf(&sb, "let $n := count(/bib/book[@year >= %d])\n", y)
	fmt.Fprintf(&sb, "let $m := count(/bib/book[@year = \"%d\"])\n", y)
	a, b := pick(), pick()
	fmt.Fprintf(&sb, "let $p := local:f%d($n) + local:f%d($n)\n", a, a)
	p := 2 * funcs[a].eval(n)
	add := int64(2 + rng.Intn(7))
	fmt.Fprintf(&sb, "let $q := (local:f%d($m + %d) + $p) mod %d\n", b, add, adhocMod)
	q := (funcs[b].eval(m+add) + p) % adhocMod
	fmt.Fprintf(&sb, "let $r := $q + 1\n")
	r := q + 1

	// FLWOR nest: the product of the ranges stays small so that execution is
	// a small part of the request.
	depth := 1 + k/21%4
	ranges := make([]int64, depth)
	for i := range ranges {
		ranges[i] = int64(2 + rng.Intn(2))
	}
	c, d := pick(), pick()
	w := int64(2 + rng.Intn(3))
	sb.WriteString("return (\n")
	idxSum := ""
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, "%sfor $i%d in 1 to %d return\n", strings.Repeat("  ", i+1), i, ranges[i])
		if i > 0 {
			idxSum += " + "
		}
		idxSum += fmt.Sprintf("$i%d", i)
	}
	fmt.Fprintf(&sb, "%sif ((%s) mod %d = 0) then local:f%d(%s + $r) else local:f%d(%s) + $n,\n",
		strings.Repeat("  ", depth+1), idxSum, w, c, idxSum, d, idxSum)
	fmt.Fprintf(&sb, "  %s)\n", adhocLiteral)

	var out []byte
	idx := make([]int64, depth)
	for i := range idx {
		idx[i] = 1
	}
	for {
		var s int64
		for _, v := range idx {
			s += v
		}
		var v int64
		if s%w == 0 {
			v = funcs[c].eval(s + r)
		} else {
			v = funcs[d].eval(s) + n
		}
		out = strconv.AppendInt(out, v, 10)
		out = append(out, ' ')
		// Advance the innermost index first, as the nested FLWOR does.
		i := depth - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] <= ranges[i] {
				break
			}
			idx[i] = 1
		}
		if i < 0 {
			break
		}
	}
	return adhocQuery{text: sb.String(), base: string(out)}
}

// genAdhocFunc writes one function that may call the ones before it. A
// function's cost is bounded so that call trees cannot grow exponentially
// with the number of declarations.
func genAdhocFunc(rng *rand.Rand, prev []adhocFunc) adhocFunc {
	k := int64(2 + rng.Intn(8))
	c := int64(1 + rng.Intn(50))
	form := rng.Intn(5)
	if len(prev) == 0 {
		form = 0
	}
	var callee adhocFunc
	var j int
	if len(prev) > 0 {
		j = rng.Intn(len(prev))
		callee = prev[j]
		if callee.cost > 8 {
			form = 0
		}
	}
	switch form {
	case 1: // composition
		return adhocFunc{
			body: fmt.Sprintf("(local:f%d($x) + %d) mod %d", j, c, adhocMod),
			eval: func(x int64) int64 { return (callee.eval(x) + c) % adhocMod },
			cost: 1 + callee.cost,
		}
	case 2: // the same call twice: a common sub-expression
		return adhocFunc{
			body: fmt.Sprintf("(local:f%d($x + %d) * %d + local:f%d($x + %d)) mod %d", j, c, k, j, c, adhocMod),
			eval: func(x int64) int64 { v := callee.eval(x + c); return (v*k + v) % adhocMod },
			cost: 1 + 2*callee.cost,
		}
	case 3: // conditional
		return adhocFunc{
			body: fmt.Sprintf("if ($x mod 2 = 0) then local:f%d($x) else ($x + %d) mod %d", j, c, adhocMod),
			eval: func(x int64) int64 {
				if x%2 == 0 {
					return callee.eval(x)
				}
				return (x + c) % adhocMod
			},
			cost: 1 + callee.cost,
		}
	case 4: // let-chain with single-use bindings
		return adhocFunc{
			body: fmt.Sprintf("let $a := $x + %d let $b := $a * %d return ($b + local:f%d($a)) mod %d", c, k, j, adhocMod),
			eval: func(x int64) int64 { a := x + c; return (a*k + callee.eval(a)) % adhocMod },
			cost: 1 + callee.cost,
		}
	default: // affine
		return adhocFunc{
			body: fmt.Sprintf("($x * %d + %d) mod %d", k, c, adhocMod),
			eval: func(x int64) int64 { return (x*k + c) % adhocMod },
			cost: 1,
		}
	}
}
