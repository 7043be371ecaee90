// Package nt provides the number-theoretic utilities the homomorphic
// encryption stack is built on: deterministic Miller–Rabin primality for
// 64-bit integers, generation of NTT-friendly primes (p ≡ 1 mod 2n),
// primitive roots and 2n-th roots of unity, and modular multiplication
// and exponentiation.
package nt

import (
	"errors"
	"math/bits"
)

// MulMod returns (a * b) mod m using a 128-bit intermediate product.
func MulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// PowMod returns a^e mod m by square-and-multiply.
func PowMod(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	a %= m
	r := uint64(1)
	for e > 0 {
		if e&1 == 1 {
			r = MulMod(r, a, m)
		}
		a = MulMod(a, a, m)
		e >>= 1
	}
	return r
}

// IsPrime reports whether n is prime, using the deterministic Miller–Rabin
// witness set for 64-bit integers (Sinclair's 7-base set).
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	d := n - 1
	r := 0
	for d&1 == 0 {
		d >>= 1
		r++
	}
	// Deterministic for all n < 2^64 (Jim Sinclair's bases).
	for _, a := range []uint64{2, 325, 9375, 28178, 450775, 9780504, 1795265022} {
		a %= n
		if a == 0 {
			continue
		}
		x := PowMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 0; i < r-1; i++ {
			x = MulMod(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// factorize returns the distinct prime factors of n (trial division plus
// Pollard's rho; n is at most 64 bits and this runs only at parameter-setup
// time).
func factorize(n uint64) []uint64 {
	var fs []uint64
	appendUnique := func(p uint64) {
		for _, f := range fs {
			if f == p {
				return
			}
		}
		fs = append(fs, p)
	}
	var rec func(n uint64)
	rec = func(n uint64) {
		if n == 1 {
			return
		}
		if IsPrime(n) {
			appendUnique(n)
			return
		}
		// Pollard's rho (Brent variant).
		d := pollardRho(n)
		rec(d)
		rec(n / d)
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13} {
		for n%p == 0 {
			appendUnique(p)
			n /= p
		}
	}
	rec(n)
	return fs
}

func pollardRho(n uint64) uint64 {
	if n%2 == 0 {
		return 2
	}
	for c := uint64(1); ; c++ {
		f := func(x uint64) uint64 { return (MulMod(x, x, n) + c) % n }
		x, y, d := uint64(2), uint64(2), uint64(1)
		for d == 1 {
			x = f(x)
			y = f(f(y))
			diff := x - y
			if x < y {
				diff = y - x
			}
			if diff == 0 {
				d = n // cycle without factor; retry with new c
				break
			}
			d = gcd(diff, n)
		}
		if d != n {
			return d
		}
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// PrimitiveRoot returns a generator of the multiplicative group mod prime p.
func PrimitiveRoot(p uint64) uint64 {
	if p == 2 {
		return 1
	}
	phi := p - 1
	factors := factorize(phi)
	for g := uint64(2); ; g++ {
		ok := true
		for _, f := range factors {
			if PowMod(g, phi/f, p) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g
		}
	}
}

// NTTPrime returns the largest prime p < 2^bits with p ≡ 1 (mod 2n), which
// admits a primitive 2n-th root of unity as required by the negacyclic NTT.
func NTTPrime(bits uint, n int) (uint64, error) {
	if bits > 62 {
		return 0, errors.New("nt: NTT primes above 62 bits unsupported")
	}
	m := uint64(2 * n)
	p := (uint64(1)<<bits - 1) / m * m // largest multiple of 2n below 2^bits
	for ; p > m; p -= m {
		if IsPrime(p + 1) {
			return p + 1, nil
		}
	}
	return 0, errors.New("nt: no NTT prime found")
}

// NTTPrimes returns k distinct NTT-friendly primes of the given bit size,
// descending from 2^bits.
func NTTPrimes(bits uint, n, k int) ([]uint64, error) {
	m := uint64(2 * n)
	p := (uint64(1)<<bits - 1) / m * m
	var out []uint64
	for ; p > m && len(out) < k; p -= m {
		if IsPrime(p + 1) {
			out = append(out, p+1)
		}
	}
	if len(out) < k {
		return nil, errors.New("nt: not enough NTT primes")
	}
	return out, nil
}

// RootOfUnity returns a primitive 2n-th root of unity modulo the NTT prime
// p (p ≡ 1 mod 2n).
func RootOfUnity(p uint64, n int) (uint64, error) {
	order := uint64(2 * n)
	if (p-1)%order != 0 {
		return 0, errors.New("nt: p-1 not divisible by 2n")
	}
	g := PrimitiveRoot(p)
	psi := PowMod(g, (p-1)/order, p)
	// psi must have exact order 2n: psi^n == -1 mod p.
	if PowMod(psi, uint64(n), p) != p-1 {
		return 0, errors.New("nt: candidate root has wrong order")
	}
	return psi, nil
}
