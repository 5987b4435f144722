package xqparse

import (
	"slices"

	"xqgo/internal/expr"
	"xqgo/internal/functions"
	"xqgo/internal/xdm"
)

// CheckNames raises the static errors of names in a parsed query: a
// variable no binding is in scope for (err:XPST0008) and a call no function
// answers (err:XPST0017). Callers run it before any rewrite, which could
// drop the code that holds them. A global's initializer sees the globals
// declared before it; a function body sees every global and its parameters.
func CheckNames(q *expr.Query) error {
	funcs := map[arity]bool{}
	for _, f := range q.Funcs {
		funcs[arity{expanded(f.Name), len(f.Params)}] = true
	}
	globals := map[xdm.QName]bool{}
	for _, v := range q.Vars {
		if err := checkExpr(v.Init, globals, funcs); err != nil {
			return err
		}
		globals[expanded(v.Name)] = true
	}
	for _, f := range q.Funcs {
		if err := checkExpr(f.Body, globals, funcs, f.Params...); err != nil {
			return err
		}
	}
	return checkExpr(q.Body, globals, funcs)
}

// arity is a function's expanded name and number of arguments.
type arity struct {
	name xdm.QName
	n    int
}

// expanded drops q's prefix: names compare by namespace and local part.
func expanded(q xdm.QName) xdm.QName { return xdm.QName{Space: q.Space, Local: q.Local} }

func checkExpr(e expr.Expr, globals map[xdm.QName]bool, funcs map[arity]bool, params ...expr.Param) error {
	if e == nil {
		return nil
	}
	var err error
	expr.EachFree(e, func(v *expr.VarRef) {
		if err == nil && !globals[expanded(v.Name)] && !slices.ContainsFunc(params, func(p expr.Param) bool { return p.Name.Equal(v.Name) }) {
			err = xdm.Errf("XPST0008", "xquery:%d:%d: undeclared variable $%s", v.Span().Line, v.Span().Col, v.Name)
		}
	})
	expr.Walk(e, func(x expr.Expr) bool {
		if c, ok := x.(*expr.Call); ok && err == nil && !funcs[arity{expanded(c.Name), len(c.Args)}] && !functions.Resolves(c.Name, len(c.Args)) {
			err = xdm.Errf("XPST0017", "xquery:%d:%d: unknown function %s/%d", c.Span().Line, c.Span().Col, c.Name, len(c.Args))
		}
		return err == nil
	})
	return err
}
