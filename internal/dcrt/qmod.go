package dcrt

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/modring"
)

// qring is fixed-width modular arithmetic for the ring modulus q of a
// Context, used by the RNS-native base-conversion and scale-and-round
// kernels. The paper's moduli are 27/54/109-bit primes, so q always fits
// two 64-bit words: below 2⁶² a modring.Ring does the work, and between
// 2⁶⁴ and 2¹²⁴ a two-word base-2⁶⁴ Barrett reduction (HAC 14.42 with
// k = 2) does. Values are passed as (lo, hi) word pairs; for one-word
// moduli hi is always zero.
//
// Moduli with 63/64 bits (no headroom for either path), above 2¹²⁴, or
// even (the centered remainder could tie at exactly q/2, which the
// round-half-away-from-zero oracle and the tie-free centering here would
// resolve differently) are rejected, and NewContext with them.
type qring struct {
	words int           // 1 or 2
	r1    *modring.Ring // one-word path (q < 2⁶²)

	// two-word path: q = q1·2⁶⁴ + q0 with q1 ≠ 0, mu = ⌊2²⁵⁶/q⌋.
	q0, q1 uint64
	mu     [3]uint64

	half0, half1 uint64 // ⌊q/2⌋
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
		mu := new(big.Int).Lsh(big.NewInt(1), 256)
		mu.Div(mu, q)
		qr := &qring{
			words: 2,
			q0:    bigWord(q, 0),
			q1:    bigWord(q, 1),
			half0: bigWord(half, 0),
			half1: bigWord(half, 1),
		}
		qr.mu[0], qr.mu[1], qr.mu[2] = bigWord(mu, 0), bigWord(mu, 1), bigWord(mu, 2)
		return qr, nil
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

// mulAddWord adds a·b to the multi-word accumulator acc, which must be
// long enough to absorb the final carry.
func mulAddWord(acc []uint64, a []uint64, b uint64) {
	var carry uint64
	for i, ai := range a {
		hi, lo := bits.Mul64(ai, b)
		s, c1 := bits.Add64(acc[i], lo, 0)
		s, c2 := bits.Add64(s, carry, 0)
		acc[i] = s
		carry = hi + c1 + c2 // hi ≤ 2⁶⁴-2, so no overflow
	}
	for i := len(a); carry != 0; i++ {
		acc[i], carry = bits.Add64(acc[i], carry, 0)
	}
}

// reduce256 returns x mod q for the four-word value x (x < 2²⁵⁶ and
// ⌊x/q⌋ < 2¹⁹² suffice for the HAC 14.42 error bound). Two-word path only.
func (qr *qring) reduce256(x *[4]uint64) (lo, hi uint64) {
	// q1hat = ⌊x / 2⁶⁴⌋ (three words), q3 = ⌊q1hat·mu / 2¹⁹²⌋.
	var prod [7]uint64
	q1hat := [3]uint64{x[1], x[2], x[3]}
	for i := 0; i < 3; i++ {
		mulAddWord(prod[i:], q1hat[:], qr.mu[i])
	}
	q3 := [3]uint64{prod[3], prod[4], prod[5]}

	// r = (x - q3·q) mod 2¹⁹², then at most two corrective subtractions.
	var r2 [5]uint64
	qw := [2]uint64{qr.q0, qr.q1}
	for i := 0; i < 3; i++ {
		mulAddWord(r2[i:], qw[:], q3[i])
	}
	r0, b := bits.Sub64(x[0], r2[0], 0)
	r1, b := bits.Sub64(x[1], r2[1], b)
	r2w, _ := bits.Sub64(x[2], r2[2], b)
	for r2w != 0 || r1 > qr.q1 || (r1 == qr.q1 && r0 >= qr.q0) {
		var bb uint64
		r0, bb = bits.Sub64(r0, qr.q0, 0)
		r1, bb = bits.Sub64(r1, qr.q1, bb)
		r2w -= bb
	}
	return r0, r1
}

// mulSmall returns (v·s) mod q for v = (lo, hi) < q and s < min(q, 2⁶⁴).
func (qr *qring) mulSmall(lo, hi, s uint64) (uint64, uint64) {
	if qr.words == 1 {
		return qr.r1.Mul(lo, s), 0
	}
	var acc [4]uint64
	v := [2]uint64{lo, hi}
	mulAddWord(acc[:], v[:], s)
	return qr.reduce256(&acc)
}

// subMod returns (a - b) mod q for a, b < q.
func (qr *qring) subMod(alo, ahi, blo, bhi uint64) (uint64, uint64) {
	if qr.words == 1 {
		return qr.r1.Sub(alo, blo), 0
	}
	lo, b := bits.Sub64(alo, blo, 0)
	hi, b := bits.Sub64(ahi, bhi, b)
	if b != 0 {
		var c uint64
		lo, c = bits.Add64(lo, qr.q0, 0)
		hi, _ = bits.Add64(hi, qr.q1, c)
	}
	return lo, hi
}

// gtHalf reports v > ⌊q/2⌋ for v < q — the centering test matching
// poly.Poly.ToCenteredCoeffs (and, q being odd, it can never tie).
func (qr *qring) gtHalf(lo, hi uint64) bool {
	if hi != qr.half1 {
		return hi > qr.half1
	}
	return lo > qr.half0
}

// negate returns q - v for 0 < v < q.
func (qr *qring) negate(lo, hi uint64) (uint64, uint64) {
	nlo, b := bits.Sub64(qr.q0, lo, 0)
	nhi, _ := bits.Sub64(qr.q1, hi, b)
	return nlo, nhi
}
