package xqparse

import (
	"testing"

	"xqgo/internal/xdm"
)

func TestCheckNames(t *testing.T) {
	for src, code := range map[string]string{
		`if (false()) then $nope else 1`:                          "XPST0008",
		`for $x in 1 to 2 return $y`:                              "XPST0008",
		`declare variable $a := $b; declare variable $b := 1; $a`: "XPST0008", // a global sees earlier ones
		`declare function local:f($x) { $y }; 1`:                  "XPST0008",
		`if (false()) then nosuch() else 1`:                       "XPST0017",
		`concat("one")`:                                           "XPST0017",
		`xs:nosuch(1)`:                                            "XPST0017",
		`position(1)`:                                             "XPST0017",
		`declare function local:f($x) { $x }; local:f(1, 2)`:      "XPST0017",
		`declare variable $g := 1; declare function local:f($x) { $x + $g }; local:f(1)`:                              "",
		`for $x at $i in (1, 2) let $y := $x return some $z in $y satisfies $z = $i`:                                  "",
		`declare function local:f($x) { local:g($x) }; declare function local:g($x) { $x }; local:f(xs:integer("1"))`: "",
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if err := CheckNames(q); xdm.CodeOf(err) != code || (err == nil) != (code == "") {
			t.Errorf("CheckNames(%q) = %v, want code %q", src, err, code)
		}
	}
}
