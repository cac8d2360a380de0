package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the fixed set of percentiles a tail may be reported at,
// highest first. A coarse, fixed ladder keeps the reported percentile
// from wandering with the sample count: with minBeyond samples beyond,
// the rungs need 200, 40 and 20 samples, and each workload's 10 s sample
// count sits well inside one band. The ladder stops at p95: on a 2-core
// VM a p99 of identical runs moved by 48% and more, and serve-sync's
// count (700-950 fresh ops) sits just under p99's 1000.
var tailLadder = []float64{95, 75, 50}

// minBeyond is how many samples must lie strictly above a percentile
// before the benchmark reports a tail there.
const minBeyond = 10

// rank returns the 0-based nearest-rank index of percentile p in n sorted
// samples.
func rank(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// percentile returns the nearest-rank percentile p of xs, which must be
// sorted ascending and non-empty.
func percentile(xs []float64, p float64) float64 {
	return xs[rank(p, len(xs))]
}

// median returns the median of xs (copied, not modified); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Tail is a tail latency with the percentile it was taken at and the
// number of samples beyond that percentile.
type Tail struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

// tail picks the highest ladder percentile of xs with at least minBeyond
// samples strictly beyond it. It refuses, with an error, when even the
// lowest rung cannot be supported.
func tail(xs []float64) (Tail, error) {
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		if len(s) == 0 {
			break
		}
		beyond := len(s) - 1 - rank(p, len(s))
		if beyond >= minBeyond {
			return Tail{P: p, Value: s[rank(p, len(s))], N: len(s), Beyond: beyond}, nil
		}
	}
	return Tail{}, fmt.Errorf("tail: %d samples cannot support any percentile with %d samples beyond it", len(s), minBeyond)
}
