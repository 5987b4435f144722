package xqgo_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xqgo"
)

// framesDoc has enough x elements for morsel rounds of FLWOR tuples at
// eight workers, each with children to navigate and a value to compare.
var framesDoc = docOf("mem:frames", func() string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 1; i <= 300; i++ {
		fmt.Fprintf(&b, `<x n="%d"><y>%d</y><z>%d</z></x>`, i, i%7, i%5)
	}
	b.WriteString("</r>")
	return b.String()
})

// frameRows are the ways a tuple of a FLWOR's last for clause can outlive
// the pull that made it: a lazily constructed node evaluated when it is
// serialized, a positional variable, a let bound after the clause, nested
// and multiple for clauses, tuples that order by and group by keep, user
// functions with typed and memoized arguments, a quantifier in the where
// clause, and a FLWOR whose items an outer let reads out of order.
var frameRows = append(rows(row{doc: framesDoc},
	`for $x in /r/x return <a>{string($x)}</a>`,
	`for $x at $i in /r/x return <a i="{$i}">{string($x/@n)}</a>`,
	`for $x in /r/x let $y := $x/y return <b>{$y/text()}</b>`,
	`for $x in /r/x[position() le 40], $y in $x/* return <c>{string($x/@n), name($y)}</c>`,
	`for $x in /r/x return <d>{for $y in $x/* return <e>{string($y)}</e>}</d>`,
	`for $x in /r/x where $x/y = "3" order by number($x/@n) descending return <o>{string($x/@n)}</o>`,
	`for $x in /r/x group by $k := string($x/y) order by $k return <g k="{$k}">{count($x)}</g>`,
	`declare function local:f($v as element(x)) { <t>{string($v/@n)}</t> };
	 for $x in /r/x return local:f($x)`,
	`declare function local:g($s as xs:string) as xs:string { concat($s, "!") };
	 for $x in /r/x return <m>{local:g(string($x/z))}</m>`,
	`for $x in /r/x where some $y in $x/* satisfies $y = "3" return <q>{string($x/@n)}</q>`,
	`let $s := for $x in /r/x return <a>{string($x/@n)}</a> return ($s[3], $s[1], $s[last()], $s[2])`,
	`let $s := for $x in /r/x return $x/y return ($s[5], $s[2])`,
	`for $x in //r//y return <j>{string($x)}</j>`,
	`for $x in //r//y where $x = "4" return <k>{$x/../@n/string()}</k>`,
), generated(644, `declare namespace p = "urn:p";
declare namespace d = "urn:d";
for $v1 at $v2 in 1 to 3 return <p:e xmlns:p="urn:p" y="{(//*:c/node()/text() eq ($v1)) castable as xs:double?}">{++$v2 + $v1}</p:e>`))

// TestTupleFrameOwnership: the last for clause of a FLWOR reuses its tuple
// frames, so every way a tuple outlives the next pull must pin it. Each row
// is pulled through Execute, EvalString and Iterator, at no workers and at
// eight, under each join strategy and with memoized functions, and must
// give the reference's bytes.
func TestTupleFrameOwnership(t *testing.T) {
	frameRows[len(frameRows)-1].doc = fixedDoc("qgen.xml", `<r xmlns:p="urn:p" xmlns:q="urn:p" x="0">
  <?pi d?>3<q:a x="a b" p:x="2.5"/>-1</r>`)
	bases := []xqgo.Options{{}, {Strategy: xqgo.ForceTwig}, {Strategy: xqgo.ForceNavigation}, {MemoizeFunctions: true}}
	for _, r := range frameRows {
		want := (&trial{t: t, row: r}).check(0)
		for _, base := range bases {
			tr := &trial{t: t, row: r, base: base, want: &want, ctx: context.Background()}
			for _, workers := range []int{0, 8} {
				for _, v := range []via{execute, evalString, iterate} {
					l := leg{name: fmt.Sprintf("%+v, workers=%d, via %d", base, workers, v), via: v}
					if workers > 0 {
						l.with = func(c *xqgo.Context) { c.WithWorkers(workers).WithWorkerLimiter(grantAll{}) }
					}
					compare(t, fmt.Sprintf("%q, %s", r.q, l.name), want, tr.run(l), nil, false)
				}
			}
		}
	}
}
