package main

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of sorted s, interpolating linearly
// between order statistics; 0 for an empty sample.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how the benchmark's acceptance check reads run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// logLogSlope fits log y = a + b log x by least squares and returns b,
// the growth exponent of y in x.
func logLogSlope(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		x, y := math.Log(xs[i]), math.Log(ys[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// Seed streams: each kind of input draws from its own stream of mix.
const (
	streamColdProgram = iota + 1
	streamColdWarmup
	streamColdSeeds
	streamColdOrder
	streamTable1Seeds
	streamCacheSeeds
	streamServiceHot
	streamServiceCold
	streamServicePick
	streamServiceSeeds
	streamServiceArrivals
)

// mix derives a 64-bit value from the run seed, a stream tag and an index
// (the SplitMix64 finalizer), so every input of a run follows from --seed
// and different streams never share values.
func mix(seed uint64, stream, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(stream)<<40 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// permutation returns 0..n-1 in an order drawn from the seed
// (Fisher–Yates).
func permutation(seed uint64, stream, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, stream, i) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// profileSeeds returns n profiling seeds for a run; kept below 2^31 so they
// read the same in every JSON decoder.
func profileSeeds(seed uint64, stream, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = mix(seed, stream, i)%(1<<31) + 1
	}
	return out
}
