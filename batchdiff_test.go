package xqgo_test

import "testing"

// TestPullGranularityDifferential: Execute drains result batches into the
// serializer, EvalString materializes, Iterator pulls item by item — under
// each join strategy that feeds the batched operators. Mixing granularities
// never skips or repeats an item, and EvalString's result re-parses from
// its own bytes.
func TestPullGranularityDifferential(t *testing.T) { eachBase(t, paperRows, axPull) }
