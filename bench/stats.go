package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; xs need not be sorted. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrPct is the interquartile range as a percentage of the median: the
// dispersion printed beside every metric taken over the rounds.
func iqrPct(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return 100 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// calibration is the host sensor: a fixed integer kernel whose duration
// depends on the box and not on the repository. Its spread over the
// rounds says whether a bad run belongs to the host.
const (
	calibIters = 30_000_000
	calibWords = 512 << 10 / 8
)

var calibBuf = make([]uint64, calibWords)

// calibSink keeps the kernel's result live so the loop is not removed.
var calibSink uint64

func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		calibBuf[(x>>33)%calibWords] += x
	}
	calibSink += x
	return time.Since(start)
}
