package xqgo_test

import (
	"fmt"
	"testing"

	"xqgo"
)

func TestSmoke(t *testing.T) {
	doc, err := xqgo.ParseString(`<bib><book year="1994"><title>TCP/IP Illustrated</title><price>65.95</price></book><book year="2000"><title>Data on the Web</title><price>39.95</price></book></bib>`, "bib.xml")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ q, want string }{
		{`1+1`, `2`},
		{`(1,2,3)[2]`, `2`},
		{`for $i in (1 to 3) return $i*$i`, `1 4 9`},
		{`count(/bib/book)`, `2`},
		{`/bib/book[@year = 1994]/title/text()`, `TCP/IP Illustrated`},
		{`for $b in /bib/book where xs:decimal($b/price) < 50 return string($b/title)`, `Data on the Web`},
		{`<r>{for $b in /bib/book return <t>{string($b/title)}</t>}</r>`, `<r><t>TCP/IP Illustrated</t><t>Data on the Web</t></r>`},
		{`some $x in (1,2,3) satisfies $x eq 2`, `true`},
		{`let $x := (1,2,3) return count($x)`, `3`},
		{`string-join(("a","b","c"), "-")`, `a-b-c`},
		{`if (/bib/book[1]/@year < 1995) then "old" else "new"`, `old`},
		{`(//title)[1]/../price/text()`, `65.95`},
	}
	for _, tc := range cases {
		q, err := xqgo.Compile(tc.q, nil)
		if err != nil {
			t.Errorf("compile %q: %v", tc.q, err)
			continue
		}
		got, err := q.EvalString(xqgo.NewContext().WithContextNode(doc))
		if err != nil {
			t.Errorf("eval %q: %v", tc.q, err)
			continue
		}
		if got != tc.want {
			t.Errorf("query %q:\n got  %q\n want %q\n plan %s", tc.q, got, tc.want, q.PlanInfo().Text)
		}
	}
	fmt.Println("smoke done")
}
