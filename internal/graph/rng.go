package graph

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). Generators take an explicit seed so datasets are
// reproducible across runs and platforms, which the experiment harness
// relies on when comparing prefetcher configurations on identical graphs.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// rngStep is what each draw adds to the state before mixing it.
const rngStep = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += rngStep
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// skip advances the generator past n draws in one step: the state is a
// counter raised by rngStep per draw (mod 2^64), so a skipped copy yields
// exactly the draws the original would make after its next n.
func (r *RNG) skip(n uint64) { r.state += n * rngStep }

// Uint32 returns the next 32 pseudo-random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("graph: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
