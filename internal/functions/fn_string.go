package functions

import (
	"math"
	"regexp"
	"strings"
	"unicode"

	"xqgo/internal/xdm"
	"xqgo/internal/xmlscan"
)

// String functions.

func init() {
	det := Properties{Deterministic: true}
	detErr := Properties{Deterministic: true, CanRaiseError: true}
	detString := Properties{Deterministic: true, Returns: xsString}
	detBoolean := Properties{Deterministic: true, Returns: xsBoolean}

	register(&Func{Name: "string", MinArgs: 0, MaxArgs: 1,
		Props: Properties{Deterministic: true, UsesContext: true, Returns: xsString},
		Call: func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
			if len(args) == 0 {
				it, ok := ctx.ContextItem()
				if !ok {
					return nil, xdm.Errf("XPDY0002", "fn:string(): no context item")
				}
				return singleton(xdm.NewString(xdm.StringValue(it))), nil
			}
			if len(args[0]) == 0 {
				return singleton(xdm.NewString("")), nil
			}
			it, err := xdm.Single(args[0])
			if err != nil {
				return nil, err
			}
			return singleton(xdm.NewString(xdm.StringValue(it))), nil
		}})

	register(&Func{Name: "concat", MinArgs: 2, MaxArgs: -1, Props: detString,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			var b strings.Builder
			for _, arg := range args {
				s, err := oneString(arg)
				if err != nil {
					return nil, err
				}
				b.WriteString(s)
			}
			return singleton(xdm.NewString(b.String())), nil
		}})

	register(&Func{Name: "string-join", MinArgs: 2, MaxArgs: 2, Props: detString,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			sep, err := oneString(args[1])
			if err != nil {
				return nil, err
			}
			parts := make([]string, len(args[0]))
			for i, it := range args[0] {
				parts[i] = xdm.StringValue(it)
			}
			return singleton(xdm.NewString(strings.Join(parts, sep))), nil
		}})

	register(&Func{Name: "string-length", MinArgs: 0, MaxArgs: 1,
		Props: Properties{Deterministic: true, UsesContext: true, Returns: xsInteger},
		Call: func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
			s, err := stringArgOrContext(ctx, args)
			if err != nil {
				return nil, err
			}
			return singleton(xdm.NewInteger(int64(len([]rune(s))))), nil
		}})

	register(&Func{Name: "normalize-space", MinArgs: 0, MaxArgs: 1,
		Props: Properties{Deterministic: true, UsesContext: true, Returns: xsString},
		Call: func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
			s, err := stringArgOrContext(ctx, args)
			if err != nil {
				return nil, err
			}
			return singleton(xdm.NewString(strings.Join(strings.Fields(s), " "))), nil
		}})

	register(&Func{Name: "upper-case", MinArgs: 1, MaxArgs: 1, Props: detString,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			s, err := oneString(args[0])
			if err != nil {
				return nil, err
			}
			return singleton(xdm.NewString(strings.ToUpper(s))), nil
		}})

	register(&Func{Name: "lower-case", MinArgs: 1, MaxArgs: 1, Props: detString,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			s, err := oneString(args[0])
			if err != nil {
				return nil, err
			}
			return singleton(xdm.NewString(strings.ToLower(s))), nil
		}})

	register(&Func{Name: "contains", MinArgs: 2, MaxArgs: 2, Props: detBoolean,
		Call: stringPredicate(strings.Contains)})

	register(&Func{Name: "starts-with", MinArgs: 2, MaxArgs: 2, Props: detBoolean,
		Call: stringPredicate(strings.HasPrefix)})

	register(&Func{Name: "ends-with", MinArgs: 2, MaxArgs: 2, Props: detBoolean,
		Call: stringPredicate(strings.HasSuffix)})

	register(&Func{Name: "substring", MinArgs: 2, MaxArgs: 3,
		Props: Properties{Deterministic: true, CanRaiseError: true, Returns: xsString},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			s, err := oneString(args[0])
			if err != nil {
				return nil, err
			}
			startA, ok, err := numericArg(args[1])
			if err != nil || !ok {
				return nil, typeErr("fn:substring: start required")
			}
			// F&O: characters at positions p with round(start) <= p <
			// round(start) + round(length), computed in doubles so that NaN
			// arguments select nothing and infinities behave per IEEE.
			startF := math.Floor(startA.AsFloat() + 0.5)
			endF := math.Inf(1)
			if len(args) == 3 {
				lenA, ok, err := numericArg(args[2])
				if err != nil || !ok {
					return nil, typeErr("fn:substring: bad length")
				}
				endF = startF + math.Floor(lenA.AsFloat()+0.5)
			}
			if math.IsNaN(startF) || math.IsNaN(endF) {
				return singleton(xdm.NewString("")), nil
			}
			var b strings.Builder
			for i, r := range []rune(s) {
				if p := float64(i + 1); p >= startF && p < endF {
					b.WriteRune(r)
				}
			}
			return singleton(xdm.NewString(b.String())), nil
		}})

	register(&Func{Name: "substring-before", MinArgs: 2, MaxArgs: 2, Props: det,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			s, err := oneString(args[0])
			if err != nil {
				return nil, err
			}
			sub, err := oneString(args[1])
			if err != nil {
				return nil, err
			}
			if i := strings.Index(s, sub); i >= 0 && sub != "" {
				return singleton(xdm.NewString(s[:i])), nil
			}
			return singleton(xdm.NewString("")), nil
		}})

	register(&Func{Name: "substring-after", MinArgs: 2, MaxArgs: 2, Props: det,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			s, err := oneString(args[0])
			if err != nil {
				return nil, err
			}
			sub, err := oneString(args[1])
			if err != nil {
				return nil, err
			}
			if i := strings.Index(s, sub); i >= 0 && sub != "" {
				return singleton(xdm.NewString(s[i+len(sub):])), nil
			}
			return singleton(xdm.NewString("")), nil
		}})

	register(&Func{Name: "translate", MinArgs: 3, MaxArgs: 3, Props: det,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			s, err := oneString(args[0])
			if err != nil {
				return nil, err
			}
			from, err := oneString(args[1])
			if err != nil {
				return nil, err
			}
			to, err := oneString(args[2])
			if err != nil {
				return nil, err
			}
			fromR, toR := []rune(from), []rune(to)
			var b strings.Builder
			for _, r := range s {
				idx := -1
				for i, f := range fromR {
					if f == r {
						idx = i
						break
					}
				}
				switch {
				case idx < 0:
					b.WriteRune(r)
				case idx < len(toR):
					b.WriteRune(toR[idx])
				}
			}
			return singleton(xdm.NewString(b.String())), nil
		}})

	register(&Func{Name: "compare", MinArgs: 2, MaxArgs: 2, Props: det,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			if len(args[0]) == 0 || len(args[1]) == 0 {
				return emptySeq, nil
			}
			a, err := oneString(args[0])
			if err != nil {
				return nil, err
			}
			b, err := oneString(args[1])
			if err != nil {
				return nil, err
			}
			return singleton(xdm.NewInteger(int64(strings.Compare(a, b)))), nil
		}})

	register(&Func{Name: "matches", MinArgs: 2, MaxArgs: 2, Props: detErr,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			re, s, err := regexArgs(args)
			if err != nil {
				return nil, err
			}
			return singleton(xdm.NewBoolean(re.MatchString(s))), nil
		}})

	register(&Func{Name: "replace", MinArgs: 3, MaxArgs: 3, Props: detErr,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			re, s, err := regexArgs(args)
			if err != nil {
				return nil, err
			}
			repl, err := oneString(args[2])
			if err != nil {
				return nil, err
			}
			// XPath uses $1..$9; Go regexp uses the same syntax.
			return singleton(xdm.NewString(re.ReplaceAllString(s, repl))), nil
		}})

	register(&Func{Name: "tokenize", MinArgs: 2, MaxArgs: 2, Props: detErr,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			re, s, err := regexArgs(args)
			if err != nil {
				return nil, err
			}
			if s == "" {
				return emptySeq, nil
			}
			var out xdm.Sequence
			for _, tok := range re.Split(s, -1) {
				out = append(out, xdm.NewString(tok))
			}
			return out, nil
		}})

	register(&Func{Name: "string-to-codepoints", MinArgs: 1, MaxArgs: 1, Props: det,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			s, err := oneString(args[0])
			if err != nil {
				return nil, err
			}
			var out xdm.Sequence
			for _, r := range s {
				out = append(out, xdm.NewInteger(int64(r)))
			}
			return out, nil
		}})

	register(&Func{Name: "codepoints-to-string", MinArgs: 1, MaxArgs: 1, Props: detErr,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			var b strings.Builder
			for _, it := range args[0] {
				a := xdm.Atomize(it)
				cp := a.AsInt()
				if !isXMLChar(cp) {
					return nil, xdm.Errf("FOCH0001", "codepoint %d is not a valid XML character", cp)
				}
				b.WriteRune(rune(cp))
			}
			return singleton(xdm.NewString(b.String())), nil
		}})

	register(&Func{Name: "escape-uri", MinArgs: 2, MaxArgs: 2, Props: det,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			s, err := oneString(args[0])
			if err != nil {
				return nil, err
			}
			// Minimal percent-escaping of reserved characters.
			var b strings.Builder
			for _, c := range []byte(s) {
				if c <= ' ' || c == '%' || c == '"' || c >= 0x7f {
					b.WriteString("%" + hexByte(c))
				} else {
					b.WriteByte(c)
				}
			}
			return singleton(xdm.NewString(b.String())), nil
		}})
}

// isXMLChar reports whether cp is a valid XML 1.0 character (the Char
// production). Surrogate code points and most C0 controls are not.
func isXMLChar(cp int64) bool { return cp >= 0 && cp <= unicode.MaxRune && xmlscan.IsChar(rune(cp)) }

func hexByte(c byte) string {
	const hexDigits = "0123456789ABCDEF"
	return string([]byte{hexDigits[c>>4], hexDigits[c&0xf]})
}

func stringArgOrContext(ctx Context, args []xdm.Sequence) (string, error) {
	if len(args) == 0 {
		it, ok := ctx.ContextItem()
		if !ok {
			return "", xdm.Errf("XPDY0002", "no context item")
		}
		return xdm.StringValue(it), nil
	}
	return oneString(args[0])
}

func stringPredicate(pred func(s, sub string) bool) func(Context, []xdm.Sequence) (xdm.Sequence, error) {
	return func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := oneString(args[0])
		if err != nil {
			return nil, err
		}
		sub, err := oneString(args[1])
		if err != nil {
			return nil, err
		}
		return singleton(xdm.NewBoolean(pred(s, sub))), nil
	}
}

// regexArgs compiles the pattern argument (arg[1]) and returns the subject.
func regexArgs(args []xdm.Sequence) (*regexp.Regexp, string, error) {
	s, err := oneString(args[0])
	if err != nil {
		return nil, "", err
	}
	pat, err := oneString(args[1])
	if err != nil {
		return nil, "", err
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, "", xdm.Errf("FORX0002", "invalid regular expression %q: %v", pat, err)
	}
	return re, s, nil
}
