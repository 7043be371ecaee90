package limb32

// Multiplication. The UPMEM DPU has no 32-bit multiplier: 8- and 16-bit
// multiplies use the native 8×8 hardware unit and anything wider compiles to
// a software shift-and-add loop (paper §3, footnote 1). This package charges
// exactly one OpMul32 per 32×32→64 product; the PIM cost model translates
// that into shift-and-add cycles, and the ablation benches re-price it to
// explore the "future PIM systems with native 32-bit multiplication"
// hypothesis of Key Takeaway 2.
//
// For 64- and 128-bit coefficient multiplication the paper splits operands
// into 32-bit chunks and applies the Karatsuba algorithm; Mul follows the
// same strategy (3 sub-products for 2 limbs, 9 for 4 limbs).

// MulSchoolbook computes dst = a * b by long multiplication.
// dst must have width len(a)+len(b) and must not alias a or b.
//
// Per row of a the DPU code loads the limb and pays the loop bookkeeping;
// a zero limb skips the row. Per inner step it loads both factors for the
// software multiply, loads the destination limb and folds the product in
// with one add and two addc, stores and loops; each carry limb rippled
// past the row costs a load, an addc and a store.
func MulSchoolbook(dst, a, b Nat, m Meter) {
	if len(dst) != len(a)+len(b) {
		panic("limb32: MulSchoolbook dst width must be len(a)+len(b)")
	}
	dst.SetZero()
	var skipped, ripples int
	for i, ai := range a {
		if ai == 0 {
			skipped++
			continue
		}
		var carry uint64
		row := dst[i : i+len(b)]
		for j, bj := range b {
			p := uint64(ai) * uint64(bj)
			s := uint64(row[j]) + (p & 0xffffffff) + carry
			row[j] = uint32(s)
			carry = (s >> 32) + (p >> 32)
		}
		for k := i + len(b); carry != 0 && k < len(dst); k++ {
			s := uint64(dst[k]) + carry
			dst[k] = uint32(s)
			carry = s >> 32
			ripples++
		}
	}
	if m != nil {
		rows := len(a) - skipped
		steps := rows * len(b)
		m[OpLoad] += int64(skipped + 3*steps + ripples)
		m[OpMul32] += int64(steps)
		m[OpAdd] += int64(steps)
		m[OpAddC] += int64(2*steps + ripples)
		m[OpStore] += int64(steps + ripples)
		m[OpLoop] += int64(skipped + steps + rows)
	}
}

// Mul computes dst = a * b, picking the same algorithm the paper's PIM
// kernels use: direct multiply for 1 limb, Karatsuba for the 2- and 4-limb
// power-of-two widths, schoolbook otherwise. dst must have width
// len(a)+len(b) and must not alias a or b. a and b must share a width for
// the Karatsuba paths.
func Mul(dst, a, b Nat, m Meter) {
	switch {
	case len(a) == 1 && len(b) == 1:
		p := uint64(a[0]) * uint64(b[0])
		dst[0] = uint32(p)
		dst[1] = uint32(p >> 32)
		if m != nil {
			m[OpLoad] += 2
			m[OpMul32]++
			m[OpStore] += 2
		}
	case len(a) == len(b) && len(a) == 2:
		karatsuba2(dst, a, b, m)
	case len(a) == len(b) && len(a) == 4:
		karatsuba4(dst, a, b, m)
	default:
		MulSchoolbook(dst, a, b, m)
	}
}

// karatsuba2 multiplies two 2-limb (64-bit) values into a 4-limb product
// using 3 limb multiplies instead of 4:
//
//	a = a1·B + a0, b = b1·B + b0  (B = 2³²)
//	z0 = a0·b0, z2 = a1·b1, z1 = (a0+a1)(b0+b1) − z0 − z2
//	a·b = z2·B² + z1·B + z0
//
// The code is straight-line, so its tally is a constant: three software
// multiplies with their operand loads, the two 33-bit operand sums, the
// conditional cross terms, and the add/sub chains that fold and assemble
// the 128-bit result.
func karatsuba2(dst, a, b Nat, m Meter) {
	z0 := uint64(a[0]) * uint64(b[0])
	z2 := uint64(a[1]) * uint64(b[1])

	// (a0+a1) and (b0+b1) fit in 33 bits; split off the top bit the way the
	// DPU code tracks carries.
	sa := uint64(a[0]) + uint64(a[1])
	sb := uint64(b[0]) + uint64(b[1])
	saH, saL := sa>>32, sa&0xffffffff
	sbH, sbL := sb>>32, sb&0xffffffff

	zm := saL * sbL
	// sa·sb = zm + cross·2³² + (saH·sbH)·2⁶⁴ where cross = saH·sbL + sbH·saL
	// (saH, sbH ∈ {0,1}, so these "multiplies" are conditional adds on the DPU).
	cross := saH*sbL + sbH*saL
	hh := saH & sbH

	// Fold sa·sb into a 128-bit (lo, hi) pair.
	lo := zm + cross<<32
	hi := cross>>32 + hh
	if lo < zm {
		hi++
	}

	// z1 = sa·sb − z0 − z2 over 128 bits (non-negative by construction).
	if lo < z0 {
		hi--
	}
	lo -= z0
	if lo < z2 {
		hi--
	}
	lo -= z2
	z1lo, z1hi := lo, hi // z1hi ≤ 1 for 64-bit operands

	// Assemble dst = z2·2⁶⁴ + z1·2³² + z0.
	s1 := z0>>32 + z1lo&0xffffffff
	s2 := z2&0xffffffff + z1lo>>32 + s1>>32
	s3 := z2>>32 + z1hi&0xffffffff + s2>>32
	dst[0], dst[1], dst[2], dst[3] = uint32(z0), uint32(s1), uint32(s2), uint32(s3)

	if m != nil {
		m[OpLoad] += 6  // two operands per multiply
		m[OpMul32] += 3 // z0, z2, zm
		m[OpAdd] += 5   // sa, sb; fold; assemble ×2
		m[OpAddC] += 4  // fold; assemble ×3
		m[OpLogic] += 3 // cross terms and the top bit
		m[OpSub] += 2   // − z0, − z2
		m[OpSubB] += 2
		m[OpStore] += 4
	}
}

// karatsuba4 multiplies two 4-limb (128-bit) values into an 8-limb product
// with three 2-limb Karatsuba multiplies (9 limb multiplies total).
func karatsuba4(dst, a, b Nat, m Meter) {
	a0, a1 := a[:2], a[2:]
	b0, b1 := b[:2], b[2:]

	var z0, z2 [4]uint32
	karatsuba2(Nat(z0[:]), a0, b0, m)
	karatsuba2(Nat(z2[:]), a1, b1, m)

	// sa = a0+a1, sb = b0+b1: 65-bit values; keep the carry bits separate.
	var sa, sb [2]uint32
	ca := Add(Nat(sa[:]), a0, a1, m)
	cb := Add(Nat(sb[:]), b0, b1, m)

	var zm [4]uint32
	karatsuba2(Nat(zm[:]), Nat(sa[:]), Nat(sb[:]), m)

	// zmFull = zm + ca·sb·2⁶⁴ + cb·sa·2⁶⁴ + ca·cb·2¹²⁸ over 5 limbs + top bit.
	var zmFull [6]uint32
	copy(zmFull[:4], zm[:])
	if ca != 0 {
		addAt(zmFull[:], sb[:], 2, m)
	}
	if cb != 0 {
		addAt(zmFull[:], sa[:], 2, m)
	}
	if ca != 0 && cb != 0 {
		addAt(zmFull[:], []uint32{1}, 4, m)
	}

	// z1 = zmFull - z0 - z2 (fits in 6 limbs, non-negative).
	subAt(zmFull[:], z0[:], 0, m)
	subAt(zmFull[:], z2[:], 0, m)

	// dst = z2·2¹²⁸ + z1·2⁶⁴ + z0.
	dst.SetZero()
	copy(dst[0:4], z0[:])
	copy(dst[4:8], z2[:])
	m.Tick(OpStore, 8)
	addAt(dst, zmFull[:], 2, m)
}

// addAt adds src into dst starting at limb offset k, propagating the carry
// through the rest of dst. Overflow past the top of dst must not occur for
// correct inputs; it panics otherwise to catch logic errors.
func addAt(dst, src []uint32, k int, m Meter) {
	var carry uint64
	i := 0
	for ; i < len(src) && k+i < len(dst); i++ {
		s := uint64(dst[k+i]) + uint64(src[i]) + carry
		dst[k+i] = uint32(s)
		carry = s >> 32
	}
	ripples := 0
	for j := k + i; carry != 0 && j < len(dst); j++ {
		s := uint64(dst[j]) + carry
		dst[j] = uint32(s)
		carry = s >> 32
		ripples++
	}
	if carry != 0 {
		panic("limb32: addAt overflow")
	}
	if m != nil {
		m[OpLoad] += int64(2*i + ripples)
		m[OpAddC] += int64(i + ripples)
		m[OpStore] += int64(i + ripples)
		m[OpLoop] += int64(i)
	}
}

// subAt subtracts src from dst starting at limb offset k, propagating the
// borrow. The result must be non-negative; it panics otherwise.
func subAt(dst, src []uint32, k int, m Meter) {
	var borrow uint64
	i := 0
	for ; i < len(src) && k+i < len(dst); i++ {
		d := uint64(dst[k+i]) - uint64(src[i]) - borrow
		dst[k+i] = uint32(d)
		borrow = (d >> 32) & 1
	}
	ripples := 0
	for j := k + i; borrow != 0 && j < len(dst); j++ {
		d := uint64(dst[j]) - borrow
		dst[j] = uint32(d)
		borrow = (d >> 32) & 1
		ripples++
	}
	if borrow != 0 {
		panic("limb32: subAt underflow")
	}
	if m != nil {
		m[OpLoad] += int64(2*i + ripples)
		m[OpSubB] += int64(i + ripples)
		m[OpStore] += int64(i + ripples)
		m[OpLoop] += int64(i)
	}
}
