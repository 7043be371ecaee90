// Galois automorphisms in the NTT domain.
//
// The negacyclic forward transform stores, at index j, the evaluation of
// the polynomial at ψ^(2·bitrev(j)+1) (Longa–Naehrig layout, see
// internal/ntt). The automorphism τ_g: X → X^g therefore acts on a
// double-CRT element as a pure permutation of NTT slots — evaluation at
// ψ^e becomes evaluation at ψ^(e·g mod 2n), with the negacyclic sign
// rule absorbed by the evaluation points — and the permutation depends
// only on (n, g), not on the limb prime. This is the primitive behind
// hoisted rotations: the expensive digit decomposition (limb shifts plus
// one forward-transform set per digit) is computed once per ciphertext,
// and each additional Galois element costs only slot gathers and
// pointwise products.
package dcrt

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/ntt"
)

// galoisKey identifies a permutation table in the process-wide cache.
type galoisKey struct {
	n int
	g uint64
}

var galoisTables sync.Map // galoisKey -> []uint32

// GaloisNTTIndices returns the slot-permutation table for τ_g on NTT
// vectors of length n: applying dst[j] = src[idx[j]] to the forward
// transform of p yields the forward transform of τ_g(p), for every
// modulus. g must be odd (even g is not an automorphism of the 2n-th
// cyclotomic). Tables are immutable and shared process-wide.
func GaloisNTTIndices(n int, g uint64) []uint32 {
	if g%2 == 0 {
		panic(fmt.Sprintf("dcrt: Galois element %d must be odd", g))
	}
	if n <= 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dcrt: NTT length %d must be a power of two > 1", n))
	}
	key := galoisKey{n, g % uint64(2*n)}
	if v, ok := galoisTables.Load(key); ok {
		return v.([]uint32)
	}
	logN := bits.TrailingZeros(uint(n))
	idx := make([]uint32, n)
	twoN := uint64(2 * n)
	for j := 0; j < n; j++ {
		// Slot j holds the evaluation at exponent e = 2·bitrev(j)+1;
		// τ_g(p) evaluated there is p evaluated at e·g, stored at the slot
		// whose exponent is e·g mod 2n.
		e := (2*revBits(uint64(j), logN) + 1) * (g % twoN) % twoN
		idx[j] = uint32(revBits((e-1)/2, logN))
	}
	v, _ := galoisTables.LoadOrStore(key, idx)
	return v.([]uint32)
}

// revBits reverses the low `width` bits of x.
func revBits(x uint64, width int) uint64 {
	return bits.Reverse64(x) >> (64 - width)
}

// PermuteNTT sets dst = τ_g(src) for double-CRT elements via the slot
// gather idx (from GaloisNTTIndices). dst must not alias src.
func (c *Context) PermuteNTT(dst, src *Poly, idx []uint32) {
	parallelFor(c.K(), func(i int) {
		ds, ss := dst.Coeffs[i], src.Coeffs[i]
		for j := range ds {
			ds[j] = ss[idx[j]]
		}
	})
}

// GaloisAccAllNTT folds a whole hoisted Galois key switch into both
// component accumulators in one memory pass:
//
//	acc0 += Σ_d k0[d]·τ(digits[d]),  acc1 += Σ_d k1[d]·τ(digits[d])
//
// with τ as the slot gather idx — the digit permutation fused into the
// accumulation, so permuted digits are never materialized — each
// gathered digit slot loaded once per product pair, and the per-slot
// digit sums accumulated lazily in 128 bits before a single Barrett fold
// (ntt.GaloisAccPair128). Digits may be lazily reduced (< 2p); results
// are bit-identical to a per-digit PermuteNTT + MulAddNTT loop. Uses at
// most min(len(digits), len(k0)) digits.
func (c *Context) GaloisAccAllNTT(acc0, acc1 *Poly, k0, k1, digits []*Poly, idx []uint32) {
	nd := min(len(digits), len(k0))
	if nd == 0 {
		return
	}
	chunk := c.fuseCap
	if chunk > maxFusedChunk {
		chunk = maxFusedChunk
	}
	parallelFor(c.K(), func(i int) {
		r := c.Tabs[i].R
		var b0, b1, bd [maxFusedChunk][]uint64
		for lo := 0; lo < nd; lo += chunk {
			hi := lo + chunk
			if hi > nd {
				hi = nd
			}
			for d := lo; d < hi; d++ {
				b0[d-lo] = k0[d].Coeffs[i]
				b1[d-lo] = k1[d].Coeffs[i]
				bd[d-lo] = digits[d].Coeffs[i]
			}
			m := hi - lo
			ntt.GaloisAccPair128(r, acc0.Coeffs[i], acc1.Coeffs[i], b0[:m], b1[:m], bd[:m], idx)
		}
	})
}
