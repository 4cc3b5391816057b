package main

import (
	"math/rand"
	"time"
)

// Every random input of a run derives from the --seed argument through one
// independent stream per purpose, so changing how one stream is consumed
// (say, a longer open-loop phase) never shifts another.
const (
	streamModules  = 1
	streamArrivals = 2
	streamConfigs  = 3
)

func newStream(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

// zipfPicks draws n module names from names with Zipf popularity of
// exponent s: names[0] is the most popular. With a single name every pick
// is that name.
func zipfPicks(seed int64, names []string, s float64, n int) []string {
	out := make([]string, n)
	if len(names) == 1 {
		for i := range out {
			out[i] = names[0]
		}
		return out
	}
	z := rand.NewZipf(newStream(seed, streamModules), s, 1, uint64(len(names)-1))
	for i := range out {
		out[i] = names[z.Uint64()]
	}
	return out
}

// poissonSchedule returns the due offsets of an open-loop Poisson arrival
// process at rate requests per second, covering span.
func poissonSchedule(seed int64, rate float64, span time.Duration) []time.Duration {
	r := newStream(seed, streamArrivals)
	var out []time.Duration
	var t float64 // seconds
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}

// configOrder lists cycles seeded permutations of [0, n): the order in which
// density-deploy visits the runtime configurations. Whole cycles keep every
// configuration equally represented in every run.
func configOrder(seed int64, n, cycles int) []int {
	r := newStream(seed, streamConfigs)
	out := make([]int, 0, n*cycles)
	for c := 0; c < cycles; c++ {
		out = append(out, r.Perm(n)...)
	}
	return out
}
