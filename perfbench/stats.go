package main

import (
	"fmt"
	"slices"
	"time"
)

// summary reduces a latency sample to what the benchmark prints: the median
// and the tail, where the tail is the highest percentile that still has at
// least tailBeyond samples above it.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // percentile of Tail; 100 when the sample is too small and Tail is the maximum
}

// tailBeyond is how many samples must lie beyond the tail value.
const tailBeyond = 10

// summarize computes the median and the tail of xs. With n sorted samples
// the value at index n-11 is the highest with ten samples beyond it; its
// percentile is the share of samples at or below it, (n-10)/n. Up to
// twenty samples that value lies at or under the median, so the tail falls
// back to the maximum.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	out := summary{N: n, P50: median(s), Tail: s[n-1], TailPct: 100}
	if n > 2*tailBeyond {
		out.Tail = s[n-1-tailBeyond]
		out.TailPct = 100 * float64(n-tailBeyond) / float64(n)
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := xs
	if !slices.IsSorted(s) {
		s = slices.Clone(xs)
		slices.Sort(s)
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// String renders the summary with its sample count, e.g.
// "p50 12.3 p96.0 40.1 (n=250)".
func (s summary) String() string {
	tail := fmt.Sprintf("p%.1f", s.TailPct)
	if s.N <= 2*tailBeyond {
		tail = "max"
	}
	return fmt.Sprintf("p50 %.4g %s %.4g (n=%d)", s.P50, tail, s.Tail, s.N)
}

// ms converts a duration to milliseconds for reporting.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
