package main

import "sort"

// median returns the middle value of vs (the mean of the two middle
// values for an even count), 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of vs that still has tailBeyond
// samples beyond it, and that percentile. It stops at p99: with thousands
// of samples the rule would pick p99.8, which ten samples do not hold
// steady from run to run. With too few samples it falls back to the
// median.
func tail(vs []float64) (value, pct float64) {
	n := len(vs)
	if n < 2*tailBeyond {
		return median(vs), 50
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := n - tailBeyond - 1
	if p99 := (n*99+99)/100 - 1; i > p99 {
		i = p99
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}
