package xqgo_test

import (
	"testing"

	"xqgo"
)

// The join strategies — navigation, the holistic twig join and cost-based
// Auto — on the paper suite (with its error-path queries), and, each with
// morsel workers off and on, on join-shaped chains over a deep document and
// on paths the index join answers or leaves to navigation. CI runs these
// under -race at GOMAXPROCS=8.

func TestStrategyDifferential(t *testing.T) { oracle(t, paperRows, xqgo.Options{}, axStrategy) }

func TestStrategyDifferentialDeep(t *testing.T) { eachBase(t, strategyDeepRows, axWorkers) }

func TestIndexedPathEquivalence(t *testing.T) { eachBase(t, indexedPathRows, axWorkers) }
