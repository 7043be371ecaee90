// Package rns holds the Residue Number System basis behind the double-CRT
// backend (package dcrt): a wide integer range Q = q₁·q₂·…·q_k is
// represented by residues modulo word-sized NTT-friendly primes, so all
// arithmetic happens on independent uint64 channels (HORNS/SEAL style,
// paper refs [97], [79]). A Basis carries the constants of the fast base
// conversion out of it; Recombine is the big.Int CRT reference. A Rounder
// is the PIM server's basis: primes below 2³¹, one DPU word each, over
// which a Mul's tensor runs, with the exact CRT and t/q rounding back to
// R_q (RNS in BFV after Bajard, Eynard, Hasan and Zucca, SAC 2016, with
// the CRT exact rather than approximate).
package rns

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/modring"
	"repro/internal/nt"
)

// Basis is an ordered set of pairwise-distinct word-sized primes together
// with the precomputed constants for CRT recombination.
type Basis struct {
	Primes []uint64
	Rings  []*modring.Ring
	Q      *big.Int // product of the primes

	// CRT recombination constants: Qi = Q/qi, QiInv = Qi^{-1} mod qi.
	qi    []*big.Int
	qiInv []uint64
	half  *big.Int // floor(Q/2), for centered recombination

	// Fast-base-conversion constants (BEHZ/HPS-style, see package dcrt):
	// Shoup companions of QiInv for the γᵢ = [xᵢ·QiInv]_{qᵢ} pass, and
	// νᵢ = ⌊2⁹⁶/qᵢ⌋ so ⌊γᵢ·νᵢ/2³²⌋ approximates γᵢ·2⁶⁴/qᵢ from below
	// with error < 2²⁸ + 1 — the fixed-point term the exact lift counter
	// is summed from without any division.
	qiInvShoup []uint64
	nu96       []uint64
}

// NewBasis builds a basis from the given primes.
func NewBasis(primes []uint64) (*Basis, error) {
	if len(primes) == 0 {
		return nil, errors.New("rns: empty basis")
	}
	b := &Basis{
		Primes: append([]uint64(nil), primes...),
		Q:      big.NewInt(1),
	}
	seen := map[uint64]bool{}
	for _, p := range primes {
		if !nt.IsPrime(p) {
			return nil, fmt.Errorf("rns: %d is not prime", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("rns: duplicate prime %d", p)
		}
		seen[p] = true
		b.Rings = append(b.Rings, modring.New(p))
		b.Q.Mul(b.Q, new(big.Int).SetUint64(p))
	}
	for i, p := range primes {
		pi := new(big.Int).SetUint64(p)
		Qi := new(big.Int).Div(b.Q, pi)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(Qi, pi), pi)
		if inv == nil {
			return nil, fmt.Errorf("rns: prime %d not invertible (duplicate?)", p)
		}
		b.qi = append(b.qi, Qi)
		b.qiInv = append(b.qiInv, inv.Uint64())
		b.qiInvShoup = append(b.qiInvShoup, b.Rings[i].ShoupConst(inv.Uint64()))
		// ν only fits a word for primes above 2³²; narrower bases simply
		// don't get the fast-conversion constants — Nu96 returns 0 and
		// dcrt.NewContext refuses such a basis.
		if p > 1<<32 {
			nu := new(big.Int).Lsh(big.NewInt(1), 96)
			b.nu96 = append(b.nu96, nu.Div(nu, pi).Uint64())
		} else {
			b.nu96 = append(b.nu96, 0)
		}
	}
	b.half = new(big.Int).Rsh(b.Q, 1)
	return b, nil
}

// K returns the number of channels.
func (b *Basis) K() int { return len(b.Primes) }

// QHat returns Q/qᵢ — the CRT weight of channel i — as a fresh big.Int.
func (b *Basis) QHat(i int) *big.Int { return new(big.Int).Set(b.qi[i]) }

// QHatInv returns (Q/qᵢ)⁻¹ mod qᵢ and its Shoup companion, the constants
// of the γ pass of a fast base conversion out of this basis.
func (b *Basis) QHatInv(i int) (inv, shoup uint64) { return b.qiInv[i], b.qiInvShoup[i] }

// Nu96 returns ⌊2⁹⁶/qᵢ⌋, or 0 when qᵢ ≤ 2³² (too narrow for the
// fixed-point lift-counter trick).
func (b *Basis) Nu96(i int) uint64 { return b.nu96[i] }

// Recombine returns the unique value in [0, Q) with the given residues —
// the CRT reference the word-sized conversions in package dcrt are
// tested against.
func (b *Basis) Recombine(residues []uint64) (*big.Int, error) {
	if len(residues) != b.K() {
		return nil, errors.New("rns: residue count mismatch")
	}
	x := new(big.Int)
	t := new(big.Int)
	for i := range residues {
		// term = residues[i] * QiInv mod qi, then * Qi
		ri := nt.MulMod(residues[i]%b.Primes[i], b.qiInv[i], b.Primes[i])
		t.SetUint64(ri)
		t.Mul(t, b.qi[i])
		x.Add(x, t)
	}
	return x.Mod(x, b.Q), nil
}

// RecombineCentered returns the representative in [-Q/2, Q/2).
func (b *Basis) RecombineCentered(residues []uint64) (*big.Int, error) {
	x, err := b.Recombine(residues)
	if err != nil {
		return nil, err
	}
	if x.Cmp(b.half) >= 0 {
		x.Sub(x, b.Q)
	}
	return x, nil
}
