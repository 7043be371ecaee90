package limb32

import (
	"fmt"
	"math/big"
)

// Nat is a fixed-width natural number stored as little-endian base-2³²
// limbs. Unlike math/big, a Nat never renormalizes: its length is its
// storage width, exactly as a buffer in DPU WRAM would be laid out. High
// limbs may be zero.
type Nat []uint32

// NewNat returns a zero Nat with the given limb width.
func NewNat(width int) Nat {
	if width <= 0 {
		panic("limb32: width must be positive")
	}
	return make(Nat, width)
}

// FromBig returns a width-limb Nat holding v, which must be non-negative
// and fit in width limbs.
func FromBig(v *big.Int, width int) Nat {
	if v.Sign() < 0 {
		panic("limb32: FromBig of negative value")
	}
	if v.BitLen() > 32*width {
		panic(fmt.Sprintf("limb32: value of %d bits does not fit in %d limbs", v.BitLen(), width))
	}
	n := NewNat(width)
	words := v.Bits()
	for i, w := range words { // big.Word is 64-bit on all supported platforms
		if 2*i < width {
			n[2*i] = uint32(w)
		}
		if 2*i+1 < width {
			n[2*i+1] = uint32(uint64(w) >> 32)
		}
	}
	return n
}

// SetBig packs v — non-negative, fitting n's width — into n in place,
// the allocation-free counterpart of FromBig for hot loops.
func (n Nat) SetBig(v *big.Int) {
	if v.Sign() < 0 {
		panic("limb32: SetBig of negative value")
	}
	if v.BitLen() > 32*len(n) {
		panic(fmt.Sprintf("limb32: value of %d bits does not fit in %d limbs", v.BitLen(), len(n)))
	}
	for i := range n {
		n[i] = 0
	}
	for i, w := range v.Bits() { // big.Word is 64-bit on all supported platforms
		if 2*i < len(n) {
			n[2*i] = uint32(w)
		}
		if 2*i+1 < len(n) {
			n[2*i+1] = uint32(uint64(w) >> 32)
		}
	}
}

// Big returns n as a math/big integer.
func (n Nat) Big() *big.Int {
	v := new(big.Int)
	for i := len(n) - 1; i >= 0; i-- {
		v.Lsh(v, 32)
		v.Or(v, big.NewInt(int64(n[i])))
	}
	return v
}

// Clone returns an independent copy of n.
func (n Nat) Clone() Nat {
	c := make(Nat, len(n))
	copy(c, n)
	return c
}

// SetZero clears every limb.
func (n Nat) SetZero() {
	for i := range n {
		n[i] = 0
	}
}

// Set copies src into n; widths must match.
func (n Nat) Set(src Nat) {
	if len(n) != len(src) {
		panic("limb32: Set width mismatch")
	}
	copy(n, src)
}

// IsZero reports whether every limb is zero.
func (n Nat) IsZero() bool {
	for _, l := range n {
		if l != 0 {
			return false
		}
	}
	return true
}

// BitLen returns the position of the highest set bit (0 for zero).
func (n Nat) BitLen() int {
	for i := len(n) - 1; i >= 0; i-- {
		if n[i] != 0 {
			b := 0
			for v := n[i]; v != 0; v >>= 1 {
				b++
			}
			return 32*i + b
		}
	}
	return 0
}

// TrimmedLen returns the number of limbs up to and including the most
// significant non-zero limb (0 for zero).
func (n Nat) TrimmedLen() int {
	for i := len(n) - 1; i >= 0; i-- {
		if n[i] != 0 {
			return i + 1
		}
	}
	return 0
}

// String formats n in hexadecimal.
func (n Nat) String() string { return "0x" + n.Big().Text(16) }

// Cmp compares a and b limb-wise, returning -1, 0 or +1. Widths must match.
// Charges two loads and one compare per limb examined (most-significant
// first, early out).
func Cmp(a, b Nat, m Meter) int {
	c, examined := cmp(a, b)
	m.Tick(OpLoad, 2*examined)
	m.Tick(OpLogic, examined)
	return c
}

// cmp is the unmetered comparison; it also reports how many limbs it
// examined before deciding.
func cmp(a, b Nat) (c, examined int) {
	if len(a) != len(b) {
		panic("limb32: Cmp width mismatch")
	}
	for i := len(a) - 1; i >= 0; i-- {
		switch {
		case a[i] < b[i]:
			return -1, len(a) - i
		case a[i] > b[i]:
			return 1, len(a) - i
		}
	}
	return 0, len(a)
}

// Add computes dst = a + b, returning the carry-out (0 or 1). All operands
// must share a width; dst may alias a or b. The metered cost mirrors the
// DPU loop in the paper's homomorphic-addition kernel: per limb two WRAM
// loads, one add (addc after the first limb), one store, plus loop
// bookkeeping.
func Add(dst, a, b Nat, m Meter) uint32 {
	carry := add(dst, a, b)
	if m != nil {
		chargeChain(m, OpAdd, OpAddC, len(dst))
	}
	return carry
}

func add(dst, a, b Nat) uint32 {
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
	return uint32(carry)
}

// Sub computes dst = a - b, returning the borrow-out (0 or 1).
func Sub(dst, a, b Nat, m Meter) uint32 {
	borrow := sub(dst, a, b)
	if m != nil {
		chargeChain(m, OpSub, OpSubB, len(dst))
	}
	return borrow
}

func sub(dst, a, b Nat) uint32 {
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
	return uint32(borrow)
}

// chargeChain charges one w-limb add or sub chain: per limb two loads, a
// store and the loop bookkeeping; the first limb's arithmetic is class
// first, the remaining w-1 limbs class rest (the carry-in form).
func chargeChain(m Meter, first, rest Op, w int) {
	m[OpLoad] += int64(2 * w)
	m[first]++
	m[rest] += int64(w - 1)
	m[OpStore] += int64(w)
	m[OpLoop] += int64(w)
}

// AddMod computes dst = (a + b) mod q, assuming a, b < q. It performs the
// add followed by a conditional subtract, the standard lazy modular add:
// q is subtracted when the sum overflowed the width or compares ≥ q.
func AddMod(dst, a, b, q Nat, m Meter) {
	reduce, examined := add(dst, a, b) != 0, 0
	if !reduce {
		var c int
		c, examined = cmp(dst, q)
		reduce = c >= 0
	}
	if reduce {
		sub(dst, dst, q)
	}
	if m != nil {
		chargeChain(m, OpAdd, OpAddC, len(dst))
		m[OpLoad] += int64(2 * examined) // the compare against q, as Cmp charges it
		m[OpLogic] += int64(examined)
		if reduce {
			chargeChain(m, OpSub, OpSubB, len(dst))
		}
	}
}

// SubMod computes dst = (a - b) mod q, assuming a, b < q.
func SubMod(dst, a, b, q Nat, m Meter) {
	wrapped := sub(dst, a, b) != 0
	if wrapped {
		add(dst, dst, q)
	}
	if m != nil {
		chargeChain(m, OpSub, OpSubB, len(dst))
		if wrapped {
			chargeChain(m, OpAdd, OpAddC, len(dst))
		}
	}
}

// NegMod computes dst = (-a) mod q, assuming a < q.
func NegMod(dst, a, q Nat, m Meter) {
	if a.IsZero() {
		dst.SetZero()
		m.Tick(OpLogic, len(a))
		return
	}
	Sub(dst, q, a, m)
}
