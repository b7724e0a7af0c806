package main

import (
	"math"
	"sort"
)

// bestHalfMean is the end-to-end value of a real-clock metric over N
// repetitions: the mean of the best ⌈N/2⌉ of them (the lowest for a
// lower-is-better metric). Neighbour noise on a shared machine only
// ever adds time, so the best half estimates the undisturbed cost more
// steadily than the median does: across two prototype sets of five
// repetitions it agreed within 6.0 % on wall_s on every workload, the
// median only within 10.5 %.
func bestHalfMean(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if better == "higher" {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	n := (len(s) + 1) / 2
	sum := 0.0
	for _, x := range s[:n] {
		sum += x
	}
	return sum / float64(n)
}

// quartiles returns the first, second and third quartile of xs by the
// rule of Python's statistics.quantiles(xs, n=4) (exclusive method), so
// the spreads the ledger prints are the ones an outside driver computes.
// Fewer than two values have no spread: all three are the value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the first and third quartile as a
// share of the median — the run-to-run noise figure bounds are judged
// against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// quantileSorted is host.Quantile over an already-sorted slice, for
// the one place that wants three percentiles of up to 3 M latencies from
// one sort, as host.Serve does it. A test holds it equal to
// host.Quantile.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}

// weighted is a value that stands for Weight equal samples.
type weighted struct {
	Value  float64
	Weight uint64
}

// weightedQuantile is the nearest-rank q-quantile of the samples xs
// stand for. xs is sorted in place.
func weightedQuantile(xs []weighted, q float64) float64 {
	sort.Slice(xs, func(a, b int) bool { return xs[a].Value < xs[b].Value })
	var total uint64
	for _, x := range xs {
		total += x.Weight
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for _, x := range xs {
		if seen += x.Weight; seen >= rank {
			return x.Value
		}
	}
	return 0
}

// worseBy is how much worse cur is than base, as a share of base, in
// the metric's own direction; negative when cur is better.
func worseBy(base, cur float64, better string) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}

// separated reports whether every repetition of a beats every
// repetition of b in the metric's direction.
func separated(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	if better == "higher" {
		return minA > maxB
	}
	return maxA < minB
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
