package limb32

import "math/bits"

// Division: Knuth, TAOCP vol. 2, Algorithm 4.3.1 D, on base-2³² limbs.
// Division never runs inside the PIM kernels' inner loops (modular
// reduction there is Barrett, built from Mul/Sub), so precise metering
// matters less here; costs are still charged so host-model op counts stay
// honest.

// DivMod computes quot = floor(u / v) and rem = u mod v.
//
// quot must have width ≥ len(u) and rem width ≥ len(v); either may be nil
// to discard that result. u and v are not modified. It panics on division
// by zero.
func DivMod(quot, rem Nat, u, v Nat, m Meter) {
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
		m.Tick(OpLogic, n)
		return
	}

	if n == 1 {
		divModShort(quot, rem, u[:ulen], v[0], m)
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
	m.Tick(OpShift, 2*(n+ulen))

	const b = 1 << 32
	var addBacks, stored int
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

		// Multiply-and-subtract: un[j..j+n] -= qhat * vn.
		var borrow, carry uint64
		for i := 0; i < n; i++ {
			p := qhat * uint64(vn[i])
			pl := (p & 0xffffffff) + carry
			carry = p>>32 + pl>>32
			d := uint64(un[j+i]) - (pl & 0xffffffff) - borrow
			un[j+i] = uint32(d)
			borrow = (d >> 32) & 1
		}
		d := uint64(un[j+n]) - carry - borrow
		un[j+n] = uint32(d)

		if (d>>32)&1 != 0 {
			// qhat was one too large: add back.
			qhat--
			var c uint64
			for i := 0; i < n; i++ {
				s := uint64(un[j+i]) + uint64(vn[i]) + c
				un[j+i] = uint32(s)
				c = s >> 32
			}
			un[j+n] = uint32(uint64(un[j+n]) + c)
			addBacks++
		}
		if quot != nil && j < len(quot) {
			quot[j] = uint32(qhat)
			stored++
		}
	}
	if m != nil {
		// Per quotient limb: the qhat estimate (its divide modeled as two
		// multiplies on the DPU, three compares) and an n-limb
		// multiply-and-subtract with its top-limb borrow; an add-back is
		// n addc.
		steps := ulen - n + 1
		m[OpMul32] += int64(steps * (2 + n))
		m[OpLogic] += int64(3 * steps)
		m[OpAddC] += int64((steps + addBacks) * n)
		m[OpSubB] += int64(steps * (n + 1))
		m[OpLoop] += int64(steps * n)
		m[OpStore] += int64(stored)
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
		m.Tick(OpShift, 2*n)
	}
}

// divModShort divides by a single limb.
func divModShort(quot, rem Nat, u []uint32, d uint32, m Meter) {
	var r uint64
	for i := len(u) - 1; i >= 0; i-- {
		cur := r<<32 | uint64(u[i])
		q := cur / uint64(d)
		r = cur % uint64(d)
		if quot != nil && i < len(quot) {
			quot[i] = uint32(q)
		}
	}
	m.Tick(OpMul32, len(u))
	m.Tick(OpLoop, len(u))
	if rem != nil {
		rem[0] = uint32(r)
	}
}

// Mod computes rem = u mod v (widths: len(rem) ≥ TrimmedLen(v)).
func Mod(rem Nat, u, v Nat, m Meter) { DivMod(nil, rem, u, v, m) }

// cmpPrefix compares the first n limbs of a and b.
func cmpPrefix(a, b Nat, n int) int {
	for i := n - 1; i >= 0; i-- {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// shiftLeftInto writes src << s into dst (same length), s < 32, dropping
// bits shifted past the top of dst.
func shiftLeftInto(dst, src []uint32, s uint) {
	if s == 0 {
		copy(dst, src)
		return
	}
	for i := len(src) - 1; i >= 0; i-- {
		v := src[i] << s
		if i > 0 {
			v |= src[i-1] >> (32 - s)
		}
		dst[i] = v
	}
}
