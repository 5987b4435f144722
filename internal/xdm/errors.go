package xdm

import (
	"errors"
	"fmt"
)

// Error is an XQuery static or dynamic error, identified by the standard
// err: code (e.g. XPTY0004 for a type error, FOAR0001 for division by zero).
// Dynamic errors are ordinary Go errors that flow out of iterators, so lazy
// evaluation naturally gives the paper's "only one branch allowed to raise
// execution errors" behaviour: an error in a sub-expression that is never
// demanded is never raised.
type Error struct {
	Code string // e.g. "XPTY0004"
	Msg  string
}

func (e *Error) Error() string { return "err:" + e.Code + ": " + e.Msg }

// Errf creates an XQuery error with a formatted message.
func Errf(code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Common error code constructors, named after their usual trigger.

// ErrType reports a type error (err:XPTY0004).
func ErrType(format string, args ...any) *Error { return Errf("XPTY0004", format, args...) }

// ErrCast reports a failed cast (err:FORG0001, invalid value for cast).
func ErrCast(format string, args ...any) *Error { return Errf("FORG0001", format, args...) }

// ErrDivZero reports integer/decimal division by zero (err:FOAR0001).
func ErrDivZero() *Error { return Errf("FOAR0001", "division by zero") }

// ErrOverflow reports numeric overflow (err:FOAR0002).
func ErrOverflow() *Error { return Errf("FOAR0002", "numeric overflow") }

// IsCode reports whether err's chain holds an xdm.Error carrying the given
// code.
func IsCode(err error, code string) bool { return code != "" && CodeOf(err) == code }

// CodeOf returns the code of the xdm.Error in err's chain (errors.As), or ""
// when there is none.
func CodeOf(err error) string {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return ""
}
