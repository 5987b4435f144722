package xqgo_test

import "testing"

// TestPullGranularityDifferential: Execute marks the result for draining
// and writes each item as it is pulled, EvalString materializes, Iterator
// pulls item by item without a mark — under each join strategy. No consumer
// skips or repeats an item, and EvalString's result re-parses from its own
// bytes.
func TestPullGranularityDifferential(t *testing.T) { eachBase(t, paperRows, axPull) }
