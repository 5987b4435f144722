package xqgo_test

import (
	"testing"

	"xqgo"
)

// TestFocusBuiltinsAgree is the drift guard of the function registry:
// every built-in whose omitted argument is the focus, called without it,
// gives the reference's bytes through each optimizer rule and every input.
func TestFocusBuiltinsAgree(t *testing.T) {
	rows := focusRows()
	if len(rows) < 2*9 {
		t.Errorf("%d built-ins read the focus, want at least the 9 of F&O 1.0", len(rows)/2)
	}
	oracle(t, rows, xqgo.Options{}, axOptimizer|axInput)
}
