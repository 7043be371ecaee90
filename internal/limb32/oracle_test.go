package limb32

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The tally oracle. The oracle* functions below are the routines as they
// were when every dynamic instruction was ticked where the DPU would
// execute it — up to eight ticks per inner-loop step. The shipped routines
// count loop trips, carries and skipped rows in locals and charge each
// class once per call; the tests here hold the two to identical results
// and identical per-class Counts, which is the whole metering contract
// (a tally is a sum, so the order of charging is free).

func oracleTick(m Meter, op Op, n int) {
	if m != nil && n > 0 {
		m.Tick(op, n)
	}
}

// adversarialLimbs are the limb values that steer the data-dependent
// charges: zero limbs skip schoolbook rows and end carry ripples, all-ones
// limbs start and sustain them, and equal halves set karatsuba4's ca/cb.
var adversarialLimbs = []uint32{0, 1, 0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff}

// operands yields width-w test operands: every limb drawn from the
// adversarial set, uniformly random ones, and mixtures of the two.
func operands(rng *rand.Rand, w, count int) []Nat {
	out := make([]Nat, 0, count+len(adversarialLimbs))
	for _, l := range adversarialLimbs {
		n := NewNat(w)
		for i := range n {
			n[i] = l
		}
		out = append(out, n)
	}
	for len(out) < cap(out) {
		n := NewNat(w)
		mode := rng.Intn(3)
		for i := range n {
			if mode == 0 || (mode == 1 && rng.Intn(2) == 0) {
				n[i] = rng.Uint32()
			} else {
				n[i] = adversarialLimbs[rng.Intn(len(adversarialLimbs))]
			}
		}
		out = append(out, n)
	}
	return out
}

// sameAs fails the test unless the shipped routine and its oracle wrote
// the same limbs and tallied the same Counts.
func sameAs(t *testing.T, got, want Nat, gotM, wantM *Counts, format string, args ...any) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: result %v, oracle %v", fmt.Sprintf(format, args...), got, want)
	}
	if *gotM != *wantM {
		t.Fatalf("%s: counts %v, oracle %v", fmt.Sprintf(format, args...), *gotM, *wantM)
	}
}

func TestMulTallyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1501))
	for _, w := range []int{1, 2, 4, 8} {
		ops := operands(rng, w, 60)
		for _, a := range ops {
			for _, b := range ops {
				var gm, wm Counts
				got, want := NewNat(2*w), NewNat(2*w)
				Mul(got, a, b, &gm)
				oracleMul(want, a, b, &wm)
				sameAs(t, got, want, &gm, &wm, "Mul w=%d %v*%v", w, a, b)

				gm, wm = Counts{}, Counts{}
				MulSchoolbook(got, a, b, &gm)
				oracleMulSchoolbook(want, a, b, &wm)
				sameAs(t, got, want, &gm, &wm, "MulSchoolbook w=%d %v*%v", w, a, b)
			}
		}
	}
	// Unequal widths take the schoolbook path, with ripples past short rows.
	for _, wa := range []int{1, 3, 9} {
		for _, wb := range []int{2, 5} {
			for _, a := range operands(rng, wa, 20) {
				for _, b := range operands(rng, wb, 20) {
					var gm, wm Counts
					got, want := NewNat(wa+wb), NewNat(wa+wb)
					Mul(got, a, b, &gm)
					oracleMul(want, a, b, &wm)
					sameAs(t, got, want, &gm, &wm, "Mul %v*%v", a, b)
				}
			}
		}
	}
}

func TestAddAtSubAtTallyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1502))
	for _, w := range []int{1, 2, 4, 8} {
		for _, src := range operands(rng, w, 30) {
			for _, base := range operands(rng, w+4, 30) {
				for k := 0; k <= 3; k++ {
					// A clear top limb keeps addAt from overflowing; adding
					// first keeps subAt from underflowing.
					got, want := base.Clone(), base.Clone()
					got[w+3], want[w+3] = 0, 0
					var gm, wm Counts
					addAt(got, src, k, &gm)
					oracleAddAt(want, src, k, &wm)
					sameAs(t, got, want, &gm, &wm, "addAt(%v, %v, %d)", base, src, k)

					gm, wm = Counts{}, Counts{}
					subAt(got, src, k, &gm)
					oracleSubAt(want, src, k, &wm)
					sameAs(t, got, want, &gm, &wm, "subAt(%v, %v, %d)", base, src, k)
				}
			}
		}
	}
}

func TestModularTallyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1503))
	for _, w := range []int{1, 2, 4, 8} {
		for _, q := range operands(rng, w, 12) {
			if q.IsZero() {
				continue
			}
			for _, x := range operands(rng, w, 40) {
				for _, y := range operands(rng, w, 8) {
					a, b := NewNat(w), NewNat(w)
					Mod(a, x, q, nil)
					Mod(b, y, q, nil)

					var gm, wm Counts
					got, want := NewNat(w), NewNat(w)
					AddMod(got, a, b, q, &gm)
					oracleAddMod(want, a, b, q, &wm)
					sameAs(t, got, want, &gm, &wm, "AddMod(%v, %v) mod %v", a, b, q)

					gm, wm = Counts{}, Counts{}
					SubMod(got, a, b, q, &gm)
					oracleSubMod(want, a, b, q, &wm)
					sameAs(t, got, want, &gm, &wm, "SubMod(%v, %v) mod %v", a, b, q)

					gm, wm = Counts{}, Counts{}
					if g, o := Cmp(x, y, &gm), oracleCmp(x, y, &wm); g != o || gm != wm {
						t.Fatalf("Cmp(%v, %v) = %d %v, oracle %d %v", x, y, g, gm, o, wm)
					}
				}
			}
		}
	}
}

func TestDivModTallyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1504))
	for _, wv := range []int{1, 2, 4, 8} {
		for _, v := range operands(rng, wv, 25) {
			if v.IsZero() {
				continue
			}
			// 2w+1 limbs is the accumulator the PIM multiply kernel reduces.
			for _, u := range operands(rng, 2*wv+1, 40) {
				var gm, wm Counts
				gq, wq := NewNat(len(u)), NewNat(len(u))
				gr, wr := NewNat(wv), NewNat(wv)
				DivMod(gq, gr, u, v, &gm)
				oracleDivMod(wq, wr, u, v, &wm)
				sameAs(t, gq, wq, &gm, &wm, "DivMod(%v, %v) quotient", u, v)
				sameAs(t, gr, wr, &gm, &wm, "DivMod(%v, %v) remainder", u, v)

				gm, wm = Counts{}, Counts{}
				Mod(gr, u, v, &gm)
				oracleDivMod(nil, wr, u, v, &wm)
				sameAs(t, gr, wr, &gm, &wm, "Mod(%v, %v)", u, v)
			}
		}
	}
}

// --- the per-instruction-ticking bodies ---

func oracleMul32(a, b uint32, m Meter) uint64 {
	oracleTick(m, OpLoad, 2)
	oracleTick(m, OpMul32, 1)
	return uint64(a) * uint64(b)
}

func oracleMulSchoolbook(dst, a, b Nat, m Meter) {
	if len(dst) != len(a)+len(b) {
		panic("limb32: MulSchoolbook dst width must be len(a)+len(b)")
	}
	dst.SetZero()
	for i := range a {
		var carry uint64
		ai := a[i]
		if ai == 0 {
			oracleTick(m, OpLoad, 1)
			oracleTick(m, OpLoop, 1)
			continue
		}
		for j := range b {
			p := oracleMul32(ai, b[j], m)
			s := uint64(dst[i+j]) + (p & 0xffffffff) + carry
			dst[i+j] = uint32(s)
			carry = (s >> 32) + (p >> 32)
			oracleTick(m, OpLoad, 1)
			oracleTick(m, OpAdd, 1)
			oracleTick(m, OpAddC, 2)
			oracleTick(m, OpStore, 1)
			oracleTick(m, OpLoop, 1)
		}
		k := i + len(b)
		for carry != 0 && k < len(dst) {
			s := uint64(dst[k]) + carry
			dst[k] = uint32(s)
			carry = s >> 32
			k++
			oracleTick(m, OpLoad, 1)
			oracleTick(m, OpAddC, 1)
			oracleTick(m, OpStore, 1)
		}
		oracleTick(m, OpLoop, 1)
	}
}

func oracleMul(dst, a, b Nat, m Meter) {
	switch {
	case len(a) == 1 && len(b) == 1:
		p := oracleMul32(a[0], b[0], m)
		dst[0] = uint32(p)
		dst[1] = uint32(p >> 32)
		oracleTick(m, OpStore, 2)
	case len(a) == len(b) && len(a) == 2:
		oracleKaratsuba2(dst, a, b, m)
	case len(a) == len(b) && len(a) == 4:
		oracleKaratsuba4(dst, a, b, m)
	default:
		oracleMulSchoolbook(dst, a, b, m)
	}
}

func oracleKaratsuba2(dst, a, b Nat, m Meter) {
	z0 := oracleMul32(a[0], b[0], m)
	z2 := oracleMul32(a[1], b[1], m)

	// (a0+a1) and (b0+b1) fit in 33 bits; split off the top bit the way the
	// DPU code tracks carries.
	sa := uint64(a[0]) + uint64(a[1])
	sb := uint64(b[0]) + uint64(b[1])
	saH, saL := sa>>32, sa&0xffffffff
	sbH, sbL := sb>>32, sb&0xffffffff
	oracleTick(m, OpAdd, 2)

	zm := oracleMul32(uint32(saL), uint32(sbL), m)
	// sa·sb = zm + cross·2³² + (saH·sbH)·2⁶⁴ where cross = saH·sbL + sbH·saL
	// (saH, sbH ∈ {0,1}, so these "multiplies" are conditional adds on the DPU).
	cross := saH*sbL + sbH*saL
	hh := saH & sbH
	oracleTick(m, OpLogic, 3)

	// Fold sa·sb into a 128-bit (lo, hi) pair.
	lo := zm + cross<<32
	hi := cross>>32 + hh
	if lo < zm {
		hi++
	}
	oracleTick(m, OpAdd, 1)
	oracleTick(m, OpAddC, 1)

	// z1 = sa·sb − z0 − z2 over 128 bits (non-negative by construction).
	if lo < z0 {
		hi--
	}
	lo -= z0
	if lo < z2 {
		hi--
	}
	lo -= z2
	oracleTick(m, OpSub, 2)
	oracleTick(m, OpSubB, 2)
	z1lo, z1hi := lo, hi // z1hi ≤ 1 for 64-bit operands

	// Assemble dst = z2·2⁶⁴ + z1·2³² + z0.
	r0 := uint32(z0)
	s1 := z0>>32 + z1lo&0xffffffff
	r1 := uint32(s1)
	s2 := z2&0xffffffff + z1lo>>32 + s1>>32
	r2 := uint32(s2)
	s3 := z2>>32 + z1hi&0xffffffff + s2>>32
	r3 := uint32(s3)
	oracleTick(m, OpAdd, 2)
	oracleTick(m, OpAddC, 3)
	dst[0], dst[1], dst[2], dst[3] = r0, r1, r2, r3
	oracleTick(m, OpStore, 4)
}

func oracleKaratsuba4(dst, a, b Nat, m Meter) {
	a0, a1 := a[:2], a[2:]
	b0, b1 := b[:2], b[2:]

	var z0, z2 [4]uint32
	oracleKaratsuba2(Nat(z0[:]), a0, b0, m)
	oracleKaratsuba2(Nat(z2[:]), a1, b1, m)

	// sa = a0+a1, sb = b0+b1: 65-bit values; keep the carry bits separate.
	var sa, sb [2]uint32
	ca := oracleAdd(Nat(sa[:]), a0, a1, m)
	cb := oracleAdd(Nat(sb[:]), b0, b1, m)

	var zm [4]uint32
	oracleKaratsuba2(Nat(zm[:]), Nat(sa[:]), Nat(sb[:]), m)

	// zmFull = zm + ca·sb·2⁶⁴ + cb·sa·2⁶⁴ + ca·cb·2¹²⁸ over 5 limbs + top bit.
	var zmFull [6]uint32
	copy(zmFull[:4], zm[:])
	if ca != 0 {
		oracleAddAt(zmFull[:], sb[:], 2, m)
	}
	if cb != 0 {
		oracleAddAt(zmFull[:], sa[:], 2, m)
	}
	if ca != 0 && cb != 0 {
		oracleAddAt(zmFull[:], []uint32{1}, 4, m)
	}

	// z1 = zmFull - z0 - z2 (fits in 6 limbs, non-negative).
	oracleSubAt(zmFull[:], z0[:], 0, m)
	oracleSubAt(zmFull[:], z2[:], 0, m)

	// dst = z2·2¹²⁸ + z1·2⁶⁴ + z0.
	dst.SetZero()
	copy(dst[0:4], z0[:])
	copy(dst[4:8], z2[:])
	oracleTick(m, OpStore, 8)
	oracleAddAt(dst, zmFull[:], 2, m)
}

func oracleAddAt(dst, src []uint32, k int, m Meter) {
	var carry uint64
	i := 0
	for ; i < len(src) && k+i < len(dst); i++ {
		s := uint64(dst[k+i]) + uint64(src[i]) + carry
		dst[k+i] = uint32(s)
		carry = s >> 32
	}
	oracleTick(m, OpLoad, 2*i)
	oracleTick(m, OpAddC, i)
	oracleTick(m, OpStore, i)
	oracleTick(m, OpLoop, i)
	for j := k + i; carry != 0 && j < len(dst); j++ {
		s := uint64(dst[j]) + carry
		dst[j] = uint32(s)
		carry = s >> 32
		oracleTick(m, OpAddC, 1)
		oracleTick(m, OpLoad, 1)
		oracleTick(m, OpStore, 1)
	}
	if carry != 0 {
		panic("limb32: addAt overflow")
	}
}

func oracleSubAt(dst, src []uint32, k int, m Meter) {
	var borrow uint64
	i := 0
	for ; i < len(src) && k+i < len(dst); i++ {
		d := uint64(dst[k+i]) - uint64(src[i]) - borrow
		dst[k+i] = uint32(d)
		borrow = (d >> 32) & 1
	}
	oracleTick(m, OpLoad, 2*i)
	oracleTick(m, OpSubB, i)
	oracleTick(m, OpStore, i)
	oracleTick(m, OpLoop, i)
	for j := k + i; borrow != 0 && j < len(dst); j++ {
		d := uint64(dst[j]) - borrow
		dst[j] = uint32(d)
		borrow = (d >> 32) & 1
		oracleTick(m, OpSubB, 1)
		oracleTick(m, OpLoad, 1)
		oracleTick(m, OpStore, 1)
	}
	if borrow != 0 {
		panic("limb32: subAt underflow")
	}
}

func oracleCmp(a, b Nat, m Meter) int {
	if len(a) != len(b) {
		panic("limb32: Cmp width mismatch")
	}
	for i := len(a) - 1; i >= 0; i-- {
		oracleTick(m, OpLoad, 2)
		oracleTick(m, OpLogic, 1)
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

func oracleAdd(dst, a, b Nat, m Meter) uint32 {
	w := len(dst)
	if len(a) != w || len(b) != w {
		panic("limb32: Add width mismatch")
	}
	var carry uint64
	for i := 0; i < w; i++ {
		s := uint64(a[i]) + uint64(b[i]) + carry
		dst[i] = uint32(s)
		carry = s >> 32
	}
	if m != nil {
		m.Tick(OpLoad, 2*w)
		m.Tick(OpAdd, 1)
		if w > 1 {
			m.Tick(OpAddC, w-1)
		}
		m.Tick(OpStore, w)
		m.Tick(OpLoop, w)
	}
	return uint32(carry)
}

func oracleSub(dst, a, b Nat, m Meter) uint32 {
	w := len(dst)
	if len(a) != w || len(b) != w {
		panic("limb32: Sub width mismatch")
	}
	var borrow uint64
	for i := 0; i < w; i++ {
		d := uint64(a[i]) - uint64(b[i]) - borrow
		dst[i] = uint32(d)
		borrow = (d >> 32) & 1
	}
	if m != nil {
		m.Tick(OpLoad, 2*w)
		m.Tick(OpSub, 1)
		if w > 1 {
			m.Tick(OpSubB, w-1)
		}
		m.Tick(OpStore, w)
		m.Tick(OpLoop, w)
	}
	return uint32(borrow)
}

func oracleAddMod(dst, a, b, q Nat, m Meter) {
	carry := oracleAdd(dst, a, b, m)
	// Subtract q when the sum overflowed the width or reached q.
	if carry != 0 || oracleCmp(dst, q, m) >= 0 {
		oracleSub(dst, dst, q, m)
	}
}

func oracleSubMod(dst, a, b, q Nat, m Meter) {
	if oracleSub(dst, a, b, m) != 0 {
		oracleAdd(dst, dst, q, m)
	}
}

func oracleDivMod(quot, rem Nat, u, v Nat, m Meter) {
	n := v.TrimmedLen()
	if n == 0 {
		panic("limb32: division by zero")
	}
	ulen := u.TrimmedLen()
	if quot != nil {
		quot.SetZero()
	}
	if rem != nil {
		rem.SetZero()
	}

	// Dividend smaller than divisor: quotient 0, remainder u.
	if ulen < n || (ulen == n && cmpPrefix(u, v, n) < 0) {
		if rem != nil {
			copy(rem, u[:min(len(rem), len(u))])
		}
		oracleTick(m, OpLogic, n)
		return
	}

	if n == 1 {
		oracleDivModShort(quot, rem, u[:ulen], v[0], m)
		return
	}

	// Normalize: shift divisor so its top limb has the high bit set.
	s := uint(bits.LeadingZeros32(v[n-1]))
	vn := make([]uint32, n)
	shiftLeftInto(vn, v[:n], s)
	un := make([]uint32, ulen+1)
	shiftLeftInto(un[:ulen], u[:ulen], s)
	if s > 0 {
		un[ulen] = u[ulen-1] >> (32 - s)
	}
	oracleTick(m, OpShift, 2*(n+ulen))

	const b = 1 << 32
	for j := ulen - n; j >= 0; j-- {
		// Estimate qhat from the top two limbs of the current remainder.
		top := uint64(un[j+n])<<32 | uint64(un[j+n-1])
		qhat := top / uint64(vn[n-1])
		rhat := top % uint64(vn[n-1])
		for qhat >= b || qhat*uint64(vn[n-2]) > rhat<<32|uint64(un[j+n-2]) {
			qhat--
			rhat += uint64(vn[n-1])
			if rhat >= b {
				break
			}
		}
		oracleTick(m, OpMul32, 2) // divide step modeled as multiplies on the DPU
		oracleTick(m, OpLogic, 3)

		// Multiply-and-subtract: un[j..j+n] -= qhat * vn.
		var borrow, carry uint64
		for i := 0; i < n; i++ {
			p := qhat * uint64(vn[i])
			pl := (p & 0xffffffff) + carry
			carry = p>>32 + pl>>32
			d := uint64(un[j+i]) - (pl & 0xffffffff) - borrow
			un[j+i] = uint32(d)
			borrow = (d >> 32) & 1
			oracleTick(m, OpMul32, 1)
			oracleTick(m, OpAddC, 1)
			oracleTick(m, OpSubB, 1)
			oracleTick(m, OpLoop, 1)
		}
		d := uint64(un[j+n]) - carry - borrow
		un[j+n] = uint32(d)
		oracleTick(m, OpSubB, 1)

		if (d>>32)&1 != 0 {
			// qhat was one too large: add back.
			qhat--
			var c uint64
			for i := 0; i < n; i++ {
				s := uint64(un[j+i]) + uint64(vn[i]) + c
				un[j+i] = uint32(s)
				c = s >> 32
				oracleTick(m, OpAddC, 1)
			}
			un[j+n] = uint32(uint64(un[j+n]) + c)
		}
		if quot != nil && j < len(quot) {
			quot[j] = uint32(qhat)
			oracleTick(m, OpStore, 1)
		}
	}

	if rem != nil {
		// Denormalize the remainder.
		for i := 0; i < n && i < len(rem); i++ {
			r := un[i] >> s
			if s > 0 && i+1 < len(un) {
				r |= un[i+1] << (32 - s)
			}
			rem[i] = r
		}
		oracleTick(m, OpShift, 2*n)
	}
}

func oracleDivModShort(quot, rem Nat, u []uint32, d uint32, m Meter) {
	var r uint64
	for i := len(u) - 1; i >= 0; i-- {
		cur := r<<32 | uint64(u[i])
		q := cur / uint64(d)
		r = cur % uint64(d)
		if quot != nil && i < len(quot) {
			quot[i] = uint32(q)
		}
		oracleTick(m, OpMul32, 1)
		oracleTick(m, OpLoop, 1)
	}
	if rem != nil {
		rem[0] = uint32(r)
	}
}
