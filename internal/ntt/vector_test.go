package ntt

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/modring"
	"repro/internal/nt"
)

// The vector kernels' contract is bit-identity with the scalar oracle —
// same lazy representatives, not just the same residues. The tests here
// pin that contract on adversarial inputs: boundary lanes (0, q−1,
// 2q−1, 4q−1, and all-ones where the kernel domain allows), lengths
// that are not lane multiples (exercising the scalar tail after the
// vector body), and every vector mode the host can force.

// vectorModes returns the forceable vector tiers this host supports
// (never includes "scalar" — that is the oracle side of each test).
func vectorModes(t *testing.T) []string {
	t.Helper()
	var modes []string
	for _, m := range []string{"avx2", "avx512"} {
		if err := SetVectorMode(m); err == nil {
			modes = append(modes, m)
		}
	}
	SetVectorMode("auto")
	if len(modes) == 0 {
		t.Skip("no vector kernels on this host")
	}
	return modes
}

// forEachVectorMode runs fn once per supported vector tier with the
// process-wide mode forced, restoring "auto" afterwards.
func forEachVectorMode(t *testing.T, fn func(t *testing.T, mode string)) {
	t.Helper()
	for _, mode := range vectorModes(t) {
		t.Run(mode, func(t *testing.T) {
			if err := SetVectorMode(mode); err != nil {
				t.Fatal(err)
			}
			defer SetVectorMode("auto")
			fn(t, mode)
		})
	}
}

// advFill fills a with an adversarial mix: boundary values in the first
// lanes (where vector and scalar disagree first when a fold or carry is
// wrong), random values below bound elsewhere.
func advFill(rng *rand.Rand, a []uint64, q, bound uint64) {
	boundary := []uint64{0, 1, q - 1, q, 2*q - 1, 2 * q, 4*q - 1, bound - 1}
	for i := range a {
		if i < len(boundary) && boundary[i] < bound {
			a[i] = boundary[i]
		} else {
			a[i] = rng.Uint64() % bound
		}
	}
}

func TestVectorForwardMatchesScalar(t *testing.T) {
	// CI picks each leg's tier through VectorEnv; a value init could not
	// honour (a typo, a tier this host lacks) was replaced by auto, and
	// both legs would then quietly test the same kernels.
	if note := EnvNote(); note != "" {
		t.Fatalf("%s is not in force: %s", VectorEnv, note)
	}
	forEachVectorMode(t, func(t *testing.T, mode string) {
		rng := rand.New(rand.NewSource(101))
		for _, n := range []int{64, 128, 256, 1024, 2048, 4096} {
			q, err := nt.NTTPrime(60, n)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := NewTable(q, n)
			if err != nil {
				t.Fatal(err)
			}
			// Inputs may arrive lazily reduced (< 4q).
			a := make([]uint64, n)
			advFill(rng, a, q, 4*q)
			b := append([]uint64(nil), a...)
			tb.ForwardLazyScalar(a)
			tb.ForwardLazy(b)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d lane %d: scalar %d %s %d", n, i, a[i], mode, b[i])
				}
			}
			// Strict entry point too (adds the 4q→q reduction pass).
			c := make([]uint64, n)
			advFill(rng, c, q, 4*q)
			d := append([]uint64(nil), c...)
			tb.ForwardScalar(c)
			tb.Forward(d)
			for i := range c {
				if c[i] != d[i] {
					t.Fatalf("Forward n=%d lane %d: scalar %d %s %d", n, i, c[i], mode, d[i])
				}
			}
		}
	})
}

func TestVectorInverseMatchesScalar(t *testing.T) {
	forEachVectorMode(t, func(t *testing.T, mode string) {
		rng := rand.New(rand.NewSource(102))
		for _, n := range []int{64, 128, 256, 1024, 2048, 4096} {
			q, err := nt.NTTPrime(60, n)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := NewTable(q, n)
			if err != nil {
				t.Fatal(err)
			}
			a := make([]uint64, n)
			advFill(rng, a, q, 2*q)
			b := append([]uint64(nil), a...)
			tb.InverseLazyScalar(a)
			tb.InverseLazy(b)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d lane %d: scalar %d %s %d", n, i, a[i], mode, b[i])
				}
			}
			c := make([]uint64, n)
			advFill(rng, c, q, 2*q)
			d := append([]uint64(nil), c...)
			tb.InverseScalar(c)
			tb.Inverse(d)
			for i := range c {
				if c[i] != d[i] {
					t.Fatalf("Inverse n=%d lane %d: scalar %d %s %d", n, i, c[i], mode, d[i])
				}
			}
		}
	})
}

func TestVectorPointwiseMulMatchesScalar(t *testing.T) {
	forEachVectorMode(t, func(t *testing.T, mode string) {
		rng := rand.New(rand.NewSource(103))
		// n=4 is below every lane width (pure scalar tail); the larger
		// sizes exercise the vector body plus dispatch.
		for _, n := range []int{4, 8, 64, 4096} {
			q, err := nt.NTTPrime(60, n)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := NewTable(q, n)
			if err != nil {
				t.Fatal(err)
			}
			a := make([]uint64, n)
			b := make([]uint64, n)
			advFill(rng, a, q, 4*q)
			advFill(rng, b, q, 4*q)
			want := make([]uint64, n)
			got := make([]uint64, n)
			tb.PointwiseMulScalar(want, a, b)
			tb.PointwiseMul(got, a, b)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("n=%d lane %d: scalar %d %s %d", n, i, want[i], mode, got[i])
				}
			}
		}
	})
}

func TestVectorLimbKernelsMatchScalar(t *testing.T) {
	forEachVectorMode(t, func(t *testing.T, mode string) {
		rng := rand.New(rand.NewSource(104))
		q, err := nt.NTTPrime(60, 4096)
		if err != nil {
			t.Fatal(err)
		}
		r := modring.New(q)
		for _, n := range []int{1, 5, 8, 11, 16, 100, 1024} {
			a0 := make([]uint64, n)
			a1 := make([]uint64, n)
			w0 := make([]uint64, n)
			w1 := make([]uint64, n)
			w0s := make([]uint64, n)
			w1s := make([]uint64, n)
			// MulShoupLazy accepts any 64-bit multiplicand; include the
			// all-ones extreme alongside the lazy boundaries.
			advFill(rng, a0, q, 4*q)
			advFill(rng, a1, q, 4*q)
			if n > 2 {
				a0[2] = ^uint64(0)
				a1[2] = ^uint64(0)
			}
			for i := 0; i < n; i++ {
				w0[i] = rng.Uint64() % q
				w1[i] = rng.Uint64() % q
				w0s[i] = r.ShoupConst(w0[i])
				w1s[i] = r.ShoupConst(w1[i])
			}

			want := make([]uint64, n)
			got := make([]uint64, n)
			for i := range want {
				want[i] = r.MulShoupLazy(a0[i], w0[i], w0s[i])
			}
			MulShoupLazyVec(r, got, a0, w0, w0s)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("MulShoupLazyVec n=%d lane %d: scalar %d %s %d", n, i, want[i], mode, got[i])
				}
			}

			twoQ := 2 * q
			for i := range want {
				s := r.MulShoupLazy(a0[i], w0[i], w0s[i]) + r.MulShoupLazy(a1[i], w1[i], w1s[i])
				if s >= twoQ {
					s -= twoQ
				}
				want[i] = s
			}
			MulPairAddShoupLazyVec(r, got, a0, w0, w0s, a1, w1, w1s)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("MulPairAddShoupLazyVec n=%d lane %d: scalar %d %s %d", n, i, want[i], mode, got[i])
				}
			}

			// MulPairAddVec: operands strictly < 4q (folded below 2q
			// in-kernel) — the all-ones lanes above are out of contract
			// here, so build fresh in-domain inputs.
			c0 := make([]uint64, n)
			c1 := make([]uint64, n)
			b0 := make([]uint64, n)
			b1 := make([]uint64, n)
			advFill(rng, c0, q, 4*q)
			advFill(rng, c1, q, 4*q)
			advFill(rng, b0, q, 4*q)
			advFill(rng, b1, q, 4*q)
			for i := range want {
				f := func(x uint64) uint64 {
					if x >= twoQ {
						x -= twoQ
					}
					return x
				}
				want[i] = r.Add(r.Mul(f(c0[i]), f(b0[i])), r.Mul(f(c1[i]), f(b1[i])))
			}
			MulPairAddVec(r, got, c0, b0, c1, b1)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("MulPairAddVec n=%d lane %d: scalar %d %s %d", n, i, want[i], mode, got[i])
				}
			}
		}
	})
}

func TestVectorAccKernelsMatchScalar(t *testing.T) {
	forEachVectorMode(t, func(t *testing.T, mode string) {
		rng := rand.New(rand.NewSource(105))
		q, err := nt.NTTPrime(60, 4096)
		if err != nil {
			t.Fatal(err)
		}
		r := modring.New(q)
		nd := Acc128Capacity(q, q-1, 4*q-1)
		if nd > accMaxDigits {
			nd = accMaxDigits
		}
		for _, n := range []int{8, 11, 16, 35, 100, 256} {
			k0 := make([][]uint64, nd)
			k1 := make([][]uint64, nd)
			digits := make([][]uint64, nd)
			for d := 0; d < nd; d++ {
				k0[d] = make([]uint64, n)
				k1[d] = make([]uint64, n)
				digits[d] = make([]uint64, n)
				advFill(rng, k0[d], q, q)
				advFill(rng, k1[d], q, q)
				advFill(rng, digits[d], q, 4*q)
			}
			seed := make([]uint64, n)
			advFill(rng, seed, q, q)
			idx := make([]uint32, n)
			for j := range idx {
				idx[j] = uint32(rng.Intn(n))
			}

			check := func(name string, vec, ref func(a0, a1 []uint64)) {
				g0 := append([]uint64(nil), seed...)
				g1 := append([]uint64(nil), seed...)
				w0 := append([]uint64(nil), seed...)
				w1 := append([]uint64(nil), seed...)
				vec(g0, g1)
				ref(w0, w1)
				for j := 0; j < n; j++ {
					if g0[j] != w0[j] || g1[j] != w1[j] {
						t.Fatalf("%s n=%d nd=%d slot %d: %s (%d,%d) scalar (%d,%d)",
							name, n, nd, j, mode, g0[j], g1[j], w0[j], w1[j])
					}
				}
			}
			check("MulAddPair128",
				func(a0, a1 []uint64) { MulAddPair128(r, a0, a1, k0, k1, digits) },
				func(a0, a1 []uint64) { MulAddPair128Scalar(r, a0, a1, k0, k1, digits) })
			check("MulPair128",
				func(a0, a1 []uint64) { MulPair128(r, a0, a1, k0, k1, digits) },
				func(a0, a1 []uint64) { MulPair128Scalar(r, a0, a1, k0, k1, digits) })
			check("GaloisAccPair128",
				func(a0, a1 []uint64) { GaloisAccPair128(r, a0, a1, k0, k1, digits, idx) },
				func(a0, a1 []uint64) { GaloisAccPair128Scalar(r, a0, a1, k0, k1, digits, idx) })
		}
	})
}

// FuzzForwardLazyVector fuzzes the forward transform's scalar/vector
// bit-identity: arbitrary byte strings become lazy (< 4q) coefficient
// vectors, and every vector tier the host supports must agree with the
// scalar oracle on every lane.
func FuzzForwardLazyVector(f *testing.F) {
	const n = 256
	q, err := nt.NTTPrime(60, n)
	if err != nil {
		f.Fatal(err)
	}
	tb, err := NewTable(q, n)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	seed := make([]byte, 8*n)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		a := make([]uint64, n)
		for i := range a {
			var v uint64
			if 8*(i+1) <= len(data) {
				v = binary.LittleEndian.Uint64(data[8*i:])
			} else if 8*i < len(data) {
				var buf [8]byte
				copy(buf[:], data[8*i:])
				v = binary.LittleEndian.Uint64(buf[:])
			}
			a[i] = v % (4 * q)
		}
		want := append([]uint64(nil), a...)
		tb.ForwardLazyScalar(want)
		for _, mode := range []string{"avx2", "avx512"} {
			if err := SetVectorMode(mode); err != nil {
				continue
			}
			got := append([]uint64(nil), a...)
			tb.ForwardLazy(got)
			SetVectorMode("auto")
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s lane %d: scalar %d vector %d (input %d)", mode, i, want[i], got[i], a[i])
				}
			}
		}
		SetVectorMode("auto")
	})
}

// Pointwise kernel benchmarks at the paper's hot point (n=4096, 60-bit
// prime) — rows of the CI regression gate; run them under
// HEPIM_VECTOR=off|auto to compare dispatch modes.

func benchTable(b *testing.B) *Table {
	b.Helper()
	q, err := nt.NTTPrime(60, 4096)
	if err != nil {
		b.Fatal(err)
	}
	tb, err := NewTable(q, 4096)
	if err != nil {
		b.Fatal(err)
	}
	return tb
}

func BenchmarkPointwiseMul(b *testing.B) {
	tb := benchTable(b)
	rng := rand.New(rand.NewSource(21))
	n := tb.N
	x := make([]uint64, n)
	y := make([]uint64, n)
	dst := make([]uint64, n)
	advFill(rng, x, tb.R.Q, 4*tb.R.Q)
	advFill(rng, y, tb.R.Q, 4*tb.R.Q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.PointwiseMul(dst, x, y)
	}
}

func BenchmarkMulShoupLazyVec(b *testing.B) {
	tb := benchTable(b)
	r := tb.R
	rng := rand.New(rand.NewSource(22))
	n := tb.N
	x := make([]uint64, n)
	w := make([]uint64, n)
	ws := make([]uint64, n)
	dst := make([]uint64, n)
	advFill(rng, x, r.Q, 4*r.Q)
	for i := range w {
		w[i] = rng.Uint64() % r.Q
		ws[i] = r.ShoupConst(w[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulShoupLazyVec(r, dst, x, w, ws)
	}
}

func BenchmarkMulPairAddVec(b *testing.B) {
	tb := benchTable(b)
	r := tb.R
	rng := rand.New(rand.NewSource(23))
	n := tb.N
	a0 := make([]uint64, n)
	b0 := make([]uint64, n)
	a1 := make([]uint64, n)
	b1 := make([]uint64, n)
	dst := make([]uint64, n)
	advFill(rng, a0, r.Q, 4*r.Q)
	advFill(rng, b0, r.Q, 4*r.Q)
	advFill(rng, a1, r.Q, 4*r.Q)
	advFill(rng, b1, r.Q, 4*r.Q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPairAddVec(r, dst, a0, b0, a1, b1)
	}
}
