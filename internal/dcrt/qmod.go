package dcrt

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/modring"
)

// qring is fixed-width modular arithmetic for the ring modulus q of a
// Context, used by the RNS-native base-conversion kernels. The paper's
// moduli are 27/54/109-bit primes, so q always fits two 64-bit words:
// below 2⁶² a modring.Ring does the work, and between 2⁶⁴ and 2¹²⁴ a
// Barrett reduction specialised to the one input shape the conversion
// produces does (reduce3). Values are passed as (lo, hi) word pairs; for
// one-word moduli hi is always zero.
//
// The conversion's recombination sum Σ γ_i·C_i + E (γ_i < p_i < 2⁶⁰,
// C_i, E < q, K ≤ maxConvLimbs terms) stays below K·2⁶⁰·q ≤ 2⁶³·q: its
// quotient by q fits one word. With b = bits(q), u = ⌊x/2^(b−1)⌋ then
// fits one word too, and with m = ⌊2^(b+63)/q⌋ < 2⁶⁴ the estimate
// q̂ = ⌊u·m/2⁶⁴⌋ satisfies q̂ ≤ ⌊x/q⌋ ≤ q̂ + 2: writing x/2^(b−1) = u + α
// and 2^(b+63)/q = m + β with α, β ∈ [0, 1),
//
//	x/q = (u + α)(m + β)/2⁶⁴ < u·m/2⁶⁴ + (u + m + 1)/2⁶⁴ < q̂ + 1 + 2 .
//
// So one 64×64 product estimates the quotient, two more form
// x − q̂·q < 3q in two words, and two masked subtractions finish — no
// loop and no data-dependent branch.
//
// Moduli with 63/64 bits (no headroom for either path), above 2¹²⁴, or
// even (the centered remainder could tie at exactly q/2, which the
// round-half-away-from-zero oracle and the tie-free centering here would
// resolve differently) are rejected, and NewContext with them.
type qring struct {
	words int           // 1 or 2
	r1    *modring.Ring // one-word path (q < 2⁶²)

	q0, q1       uint64 // q = q1·2⁶⁴ + q0 (q1 = 0 on the one-word path)
	half0, half1 uint64 // ⌊q/2⌋

	// two-word path: sh = bits(q) − 65, so u = ⌊x/2^(b−1)⌋ is the
	// funnel shift of x's upper two words by sh; m = ⌊2^(b+63)/q⌋.
	sh uint
	m  uint64
}

// newQring returns the fixed-width ring for q, or an error naming the
// shape that rules the word-sized path out.
func newQring(q *big.Int) (*qring, error) {
	if q.Bit(0) == 0 {
		return nil, errors.New("dcrt: even modulus q could tie at q/2 during centering")
	}
	b := q.BitLen()
	half := new(big.Int).Rsh(q, 1)
	switch {
	case b > 1 && b <= 62:
		return &qring{
			words: 1,
			r1:    modring.New(q.Uint64()),
			q0:    q.Uint64(),
			half0: half.Uint64(),
		}, nil
	case b >= 65 && b <= 124:
		m := new(big.Int).Lsh(big.NewInt(1), uint(b+63))
		m.Div(m, q)
		return &qring{
			words: 2,
			q0:    bigWord(q, 0),
			q1:    bigWord(q, 1),
			half0: bigWord(half, 0),
			half1: bigWord(half, 1),
			sh:    uint(b - 65),
			m:     m.Uint64(),
		}, nil
	default:
		return nil, fmt.Errorf("dcrt: %d-bit modulus q fits neither the one-word (≤ 62-bit) nor the two-word (65–124-bit) path", b)
	}
}

// bigWord returns 64-bit word i of v (little-endian).
func bigWord(v *big.Int, i int) uint64 {
	w := v.Bits()
	if i >= len(w) {
		return 0
	}
	return uint64(w[i]) // big.Word is 64-bit on all supported platforms
}

// reduce3 returns x mod q for x = x2·2¹²⁸ + x1·2⁶⁴ + x0 < 2⁶³·q — the
// recombination sums of the two-word conversion (see the qring comment
// for the error bound). Two-word path only.
func (qr *qring) reduce3(x0, x1, x2 uint64) (lo, hi uint64) {
	u := x1>>qr.sh | x2<<(64-qr.sh)
	qh, _ := bits.Mul64(u, qr.m)
	ph, pl := bits.Mul64(qh, qr.q0)
	r0, b := bits.Sub64(x0, pl, 0)
	r1 := x1 - ph - qh*qr.q1 - b // x − q̂·q < 3q < 2¹²⁶: exact mod 2¹²⁸
	r0, r1 = qr.subQ(r0, r1)
	return qr.subQ(r0, r1)
}

// subQ returns v − q when v ≥ q, else v, without a branch.
func (qr *qring) subQ(lo, hi uint64) (uint64, uint64) {
	l, b := bits.Sub64(lo, qr.q0, 0)
	h, b := bits.Sub64(hi, qr.q1, b)
	keep := -b // all ones when v < q
	return l&^keep | lo&keep, h&^keep | hi&keep
}
