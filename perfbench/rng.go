package main

// The benchmark derives its inputs with its own SplitMix64 rather than
// the program's seeds package, so a change to the program's seeding
// cannot change what the benchmark runs.

// Input lanes: each kind of input draws from its own stream.
const (
	laneSessionSpec = iota + 1
	laneSessionSample
	laneCitySeed
)

type rng struct{ s uint64 }

// newRNG seeds a stream for (workload seed, lane, index).
func newRNG(seed int64, lane, i int) *rng {
	r := &rng{s: uint64(seed)}
	r.s = r.next() ^ uint64(lane)<<40 ^ uint64(i)
	r.next()
	return r
}

// next is SplitMix64 (Steele, Lea and Flood, OOPSLA 2014).
func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
