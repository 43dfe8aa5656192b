package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []uint32 {
	xs := make([]uint32, n)
	for i := range xs {
		xs[i] = uint32(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 samples above
		{999, 0.99, 0, false},   // rank 990, only 9 above
		{100, 0.9, 90, true},
		{99, 0.9, 0, false},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
		{2000, 0.5, 1000, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestWindowStats(t *testing.T) {
	// Client a commits 30 transactions in window 0 and 25 in window 2,
	// none in window 1; client b commits 20 in each of windows 0 to 2
	// but stops before window 2 ends, so only windows 0 and 1 count.
	a := &client{ran: 3*window + window/2, marks: []int{0, 30, 30}}
	a.lat = make([]uint32, 55)
	b := &client{ran: 2*window + window/2, marks: []int{0, 20, 40}}
	b.lat = make([]uint32, 60)
	for i := range a.lat {
		a.lat[i] = 100
	}
	for i := range b.lat {
		b.lat[i] = 200
	}
	tps, p50, p99, _ := windowStats([]*client{a, b}, nil, nil, nil, nil)
	per := float64(time.Second / window)
	if len(tps) != 2 || math.Abs(tps[0]-50*per) > 1e-6 || math.Abs(tps[1]-20*per) > 1e-6 {
		t.Fatalf("tps = %v; want 2 windows of %v and %v tps", tps, 50*per, 20*per)
	}
	if len(p50) != 2 || p50[0] != 100 || p50[1] != 200 {
		t.Errorf("p50 = %v, want [100 200]", p50)
	}
	if len(p99) != 0 {
		t.Errorf("p99 = %v from windows of 50 and 20 samples; want none", p99)
	}
}
