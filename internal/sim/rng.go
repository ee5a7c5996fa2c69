package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). Simulations must not use math/rand's global state:
// every stochastic decision in the simulator draws from an explicitly
// seeded RNG so that experiments replay identically.
type RNG struct {
	state uint64
}

// rngGamma is splitmix64's per-draw state increment; rngGammaInv is its
// inverse modulo 2^64 (gamma is odd), which turns a state back into a
// stream position.
const (
	rngGamma    = 0x9e3779b97f4a7c15
	rngGammaInv = 0xf1de83e19937733d
)

// NewRNG returns a generator seeded with seed. Distinct seeds produce
// independent-looking streams; seed 0 is valid.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += rngGamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a uniform Time in [0, d). A non-positive d yields 0,
// which is convenient for "jitter up to d" call sites.
func (r *RNG) Duration(d Time) Time {
	if d <= 0 {
		return 0
	}
	return Time(r.Uint64() % uint64(d))
}

// Exp returns an exponentially distributed Time with the given mean,
// used for randomized think times in open-loop workloads. A non-positive
// mean yields 0.
func (r *RNG) Exp(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	if u <= 0 {
		u = 1.0 / (1 << 53)
	}
	return Time(-float64(mean) * math.Log(u))
}

// Split derives a new independent generator from r, for handing one
// stream per simulated thread out of a single experiment seed.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// Reseed resets r to the exact state of NewRNG(seed), letting pooled
// simulation state reuse generator objects without allocating: a reseeded
// RNG is indistinguishable from a fresh one.
func (r *RNG) Reseed(seed uint64) { r.state = seed }

// SplitInto reseeds dst from r's stream, the allocation-free equivalent
// of dst = r.Split().
func (r *RNG) SplitInto(dst *RNG) { dst.state = r.Uint64() }

// Pos reports r's position in its stream, in draws. Only differences
// are meaningful: every Uint64 call (and so every Intn, Float64,
// Duration or Exp draw) advances Pos by exactly one.
func (r *RNG) Pos() uint64 { return r.state * rngGammaInv }

// Advance skips n draws in O(1), leaving r exactly where n sequential
// Uint64 calls would: splitmix64 adds a constant per draw, so skipping
// is one multiply-add. The fast-forward layer uses it to move a
// thread's stream across elided cycles.
func (r *RNG) Advance(n uint64) { r.state += n * rngGamma }
