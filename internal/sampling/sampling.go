// Package sampling provides the randomness used by the BFV scheme: a
// deterministic, seedable ChaCha8 source (reproducible tests and
// benchmarks), uniform sampling modulo word-sized and multi-limb moduli,
// uniform ternary secrets, and a bounded discrete Gaussian error sampler
// with the standard lattice-crypto width σ = 3.2.
package sampling

import (
	"crypto/rand"
	"math"
	"math/bits"
	mrand "math/rand/v2"

	"repro/internal/limb32"
)

// DefaultSigma is the error standard deviation used by SEAL and most BFV
// deployments.
const DefaultSigma = 3.2

// gaussTailCut bounds the support of the discrete Gaussian at ±⌈6σ⌉,
// beyond which the probability mass is < 2⁻⁵⁰.
const gaussTailCut = 6

// Source is a deterministic random source for all samplers.
type Source struct {
	rng *mrand.Rand
	// Cumulative distribution table for the discrete Gaussian, scaled to
	// [0, 1<<63): cdf[i] = P(|X| <= i-ish); see newGaussTable.
	gauss *gaussTable
}

// NewSource returns a Source seeded from the 32-byte seed (ChaCha8).
func NewSource(seed [32]byte) *Source {
	return &Source{
		rng:   mrand.New(mrand.NewChaCha8(seed)),
		gauss: defaultGauss,
	}
}

// NewSourceFromUint64 is a convenience for tests: the seed is the value
// repeated across the 32 bytes.
func NewSourceFromUint64(seed uint64) *Source {
	var s [32]byte
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			s[i*8+j] = byte(seed >> (8 * j))
		}
	}
	return NewSource(s)
}

// NewSystemSource returns a Source seeded from crypto/rand; it fails only
// if the operating system's entropy source does.
func NewSystemSource() (*Source, error) {
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, err
	}
	return NewSource(seed), nil
}

// Uint64N returns a uniform value in [0, n).
func (s *Source) Uint64N(n uint64) uint64 { return s.rng.Uint64N(n) }

// UniformCoeffs fills dst, a flat slice of len(q)-limb coefficients, with
// independent uniform values in [0, q), in order. Each is rejection
// sampled on q.BitLen() bits (expected < 2 tries): a try draws one word
// per significant limb and keeps its low 32 bits.
func (s *Source) UniformCoeffs(dst []uint32, q limb32.Nat) {
	w, bl := len(q), q.BitLen()
	if bl == 0 {
		panic("sampling: zero modulus")
	}
	if len(dst)%w != 0 {
		panic("sampling: destination is not a whole number of coefficients")
	}
	limbs := (bl + 31) / 32
	mask := ^uint32(0) >> (32*limbs - bl)
	for i := 0; i < len(dst); i += w {
		v := limb32.Nat(dst[i : i+limbs])
		for {
			for j := range v {
				v[j] = uint32(s.rng.Uint64())
			}
			v[limbs-1] &= mask
			if limb32.Cmp(v, q[:limbs], nil) < 0 {
				break
			}
		}
		clear(dst[i+limbs : i+w])
	}
}

// Ternary fills out with independent uniform values from {-1, 0, +1}.
func (s *Source) Ternary(out []int8) {
	for i := range out {
		out[i] = int8(s.rng.Uint64N(3)) - 1
	}
}

// gaussTable is a precomputed inverse-CDF table for the centered discrete
// Gaussian with parameter sigma, supported on [-bound, bound].
type gaussTable struct {
	sigma float64
	bound int
	// cdf[k] = round(2^63 * P(X <= k - bound)) for k < 2·bound, strictly
	// increasing; cdf[k] = 2^63 from k = 2·bound to the end, which pads the
	// table to a power-of-two length for the branch-free search.
	cdf []uint64
	// guide[b] is the sample of every u whose top guideBits bits are b,
	// or guideSplit when a cdf entry splits that range of u.
	guide [1 << guideBits]int8
}

// guideBits is how many top bits of a draw index gaussTable.guide. At
// most 2·bound of its 4096 ranges hold a cdf entry, so about 99 % of
// draws read their sample from the guide and skip the search.
const guideBits = 12

// guideSplit marks a guide range a cdf entry splits; it is no sample,
// since |sample| ≤ bound < 128.
const guideSplit = math.MinInt8

func newGaussTable(sigma float64) *gaussTable {
	bound := int(math.Ceil(gaussTailCut * sigma))
	weights := make([]float64, 2*bound+1)
	var total float64
	for k := -bound; k <= bound; k++ {
		w := math.Exp(-float64(k*k) / (2 * sigma * sigma))
		weights[k+bound] = w
		total += w
	}
	cdf := make([]uint64, 1<<bits.Len(uint(2*bound)))
	var acc float64
	for i, w := range weights {
		acc += w / total
		v := acc * float64(1<<63)
		if v >= float64(1<<63) {
			cdf[i] = 1 << 63
		} else {
			cdf[i] = uint64(v)
		}
	}
	for i := 2 * bound; i < len(cdf); i++ {
		cdf[i] = 1 << 63 // exact top
	}
	g := &gaussTable{sigma: sigma, bound: bound, cdf: cdf}
	const width = 1 << (63 - guideBits)
	for b := range g.guide {
		lo := uint64(b) * width
		// search is monotone in u: equal at both ends, constant between.
		if v := g.search(lo); v == g.search(lo+width-1) {
			g.guide[b] = v
		} else {
			g.guide[b] = guideSplit
		}
	}
	return g
}

var defaultGauss = newGaussTable(DefaultSigma)

// GaussianBound returns the largest magnitude Gaussian draws, ⌈6σ⌉.
func GaussianBound() int { return defaultGauss.bound }

// Gaussian fills out with independent draws from the centered discrete
// Gaussian with σ = DefaultSigma, by inverse-CDF sampling.
func (s *Source) Gaussian(out []int8) {
	for i := range out {
		out[i] = s.gauss.sample(s.rng.Uint64() >> 1) // uniform in [0, 2^63)
	}
}

// sample maps u ∈ [0, 2⁶³) to its sample: from the guide, or by the
// search when a cdf entry splits u's guide range.
func (g *gaussTable) sample(u uint64) int8 {
	if v := g.guide[u>>(63-guideBits)]; v != guideSplit {
		return v
	}
	return g.search(u)
}

// search maps u ∈ [0, 2⁶³) to k − bound, where k is the number of table
// entries at most u. The binary search selects each step with a mask
// rather than a branch: the comparisons go either way at random, so a
// branch would mispredict on most steps. The padding entries 2⁶³ exceed
// every u, so k ≤ 2·bound.
func (g *gaussTable) search(u uint64) int8 {
	cdf, k := g.cdf, 0
	for step := len(cdf) >> 1; step > 0; step >>= 1 {
		// u − cdf fits 64 bits signed: its sign is set when cdf > u.
		k += step &^ -int((u-cdf[k+step-1])>>63)
	}
	return int8(k - g.bound)
}
