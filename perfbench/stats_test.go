package main

import "testing"

func TestSummarizeTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort
		}
		return xs
	}
	cases := []struct {
		n              int
		p50, tail, pct float64
	}{
		{n: 1, p50: 1, tail: 1, pct: 100},
		{n: 20, p50: 10.5, tail: 20, pct: 100},           // the value with ten beyond would sit under the median
		{n: 21, p50: 11, tail: 11, pct: 100 * 11.0 / 21}, // index 10 has exactly ten beyond
		{n: 100, p50: 50.5, tail: 90, pct: 90},
		{n: 1000, p50: 500.5, tail: 990, pct: 99},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.P50 != c.p50 || s.Tail != c.tail || s.TailPct != c.pct {
			t.Errorf("n=%d: got %+v, want p50 %v tail %v at p%v", c.n, s, c.p50, c.tail, c.pct)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("empty sample: got %+v", s)
	}
}

func TestSummarizeTailHasTenBeyond(t *testing.T) {
	for n := 21; n < 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		s := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Fatalf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailBeyond)
		}
		if s.Tail < s.P50 {
			t.Fatalf("n=%d: tail %v under the median %v", n, s.Tail, s.P50)
		}
	}
}
