package ntt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/modring"
	"repro/internal/nt"
)

// Lazy-reduction property tests: the transform and accumulation kernels
// are exercised at a 60-bit prime — the ceiling the extended-basis
// contexts run at, where the 4q and 128-bit headroom arguments are
// tightest — with inputs pinned at the lazy-bound corner cases 0, q−1,
// 2q−1 and 4q−1 alongside random values, cross-checked against the
// strict-reduction kernels and (for the composed forward → pointwise →
// inverse pipeline) the schoolbook oracle.

// lazyTable returns a table at the 60-bit prime ceiling.
func lazyTable(t testing.TB, n int) *Table {
	t.Helper()
	q, err := nt.NTTPrime(60, n)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := GetTable(q, n)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// pinnedLazy fills a length-n vector with random values below bound,
// pinning the first slots to the corner cases 0, q−1, 2q−1, 4q−1 (those
// below bound).
func pinnedLazy(rng *rand.Rand, n int, q, bound uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % bound
	}
	pins := []uint64{0, q - 1, 2*q - 1, 4*q - 1}
	k := 0
	for _, p := range pins {
		if p < bound && k < n {
			a[k] = p
			k++
		}
	}
	return a
}

func modEq(r *modring.Ring, a, b uint64) bool { return a%r.Q == b%r.Q }

// TestForwardLazyBounds: ForwardLazy on lazy inputs (< 4q) stays below
// 4q and agrees with the strict Forward of the reduced input mod q.
func TestForwardLazyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{2, 4, 8, 64, 512, 2048, 4096} {
		tab := lazyTable(t, n)
		q := tab.R.Q
		a := pinnedLazy(rng, n, q, 4*q)
		strict := make([]uint64, n)
		for i := range a {
			strict[i] = a[i] % q
		}
		tab.ForwardLazy(a)
		tab.Forward(strict)
		for i := range a {
			if a[i] >= 4*q {
				t.Fatalf("n=%d: ForwardLazy output %d = %d ≥ 4q", n, i, a[i])
			}
			if !modEq(tab.R, a[i], strict[i]) {
				t.Fatalf("n=%d: ForwardLazy ≠ Forward mod q at %d", n, i)
			}
		}
	}
}

// TestInverseLazyBounds: InverseLazy on lazy inputs (< 2q) stays below
// 2q and agrees with the strict Inverse of the reduced input mod q.
func TestInverseLazyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, n := range []int{2, 4, 8, 64, 512, 2048, 4096} {
		tab := lazyTable(t, n)
		q := tab.R.Q
		a := pinnedLazy(rng, n, q, 2*q)
		strict := make([]uint64, n)
		for i := range a {
			strict[i] = a[i] % q
		}
		tab.InverseLazy(a)
		tab.Inverse(strict)
		for i := range a {
			if a[i] >= 2*q {
				t.Fatalf("n=%d: InverseLazy output %d = %d ≥ 2q", n, i, a[i])
			}
			if !modEq(tab.R, a[i], strict[i]) {
				t.Fatalf("n=%d: InverseLazy ≠ Inverse mod q at %d", n, i)
			}
		}
	}
}

// TestPointwiseMulLazyInputs: the Barrett pointwise product reduces
// lazily-bounded operands exactly, and composed with the transforms —
// ForwardLazy's < 4q outputs fed straight in, Inverse restoring < q —
// it is the schoolbook negacyclic product.
func TestPointwiseMulLazyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	tab := lazyTable(t, 256)
	q := tab.R.Q
	a := pinnedLazy(rng, 256, q, 4*q)
	b := pinnedLazy(rng, 256, q, 4*q)
	got := make([]uint64, 256)
	tab.PointwiseMul(got, a, b)
	for i := range got {
		want := tab.R.Mul(a[i]%q, b[i]%q)
		if got[i] != want {
			t.Fatalf("PointwiseMul mismatch at %d: %d != %d", i, got[i], want)
		}
		if got[i] >= q {
			t.Fatalf("PointwiseMul output %d not canonical", i)
		}
	}

	for _, n := range []int{4, 16, 64} {
		tab := lazyTable(t, n)
		q := tab.R.Q
		a := pinnedLazy(rng, n, q, q)
		b := pinnedLazy(rng, n, q, q)
		want := schoolbookNegacyclic(tab.R, a, b)
		fa := append([]uint64(nil), a...)
		fb := append([]uint64(nil), b...)
		tab.ForwardLazy(fa)
		tab.ForwardLazy(fb)
		got := make([]uint64, n)
		tab.PointwiseMul(got, fa, fb)
		tab.Inverse(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: lazy NTT product ≠ schoolbook at %d: %d != %d", n, i, got[i], want[i])
			}
		}
	}
}

func schoolbookNegacyclic(r *modring.Ring, a, b []uint64) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := r.Mul(a[i], b[j])
			if i+j < n {
				out[i+j] = r.Add(out[i+j], p)
			} else {
				out[i+j-n] = r.Sub(out[i+j-n], p)
			}
		}
	}
	return out
}

// naiveAccPair is the strict per-digit reference for the fused 128-bit
// accumulators.
func naiveAccPair(r *modring.Ring, acc0, acc1 []uint64, k0, k1, digits [][]uint64, idx []uint32) {
	for j := range acc0 {
		dj := j
		for d := range digits {
			if idx != nil {
				dj = int(idx[j])
			}
			v := digits[d][dj] % r.Q
			acc0[j] = r.Add(acc0[j], r.Mul(k0[d][j], v))
			acc1[j] = r.Add(acc1[j], r.Mul(k1[d][j], v))
		}
	}
}

// TestAcc128Oracle: MulAddPair128 / MulPair128 / GaloisAccPair128 match
// the strict per-digit loop at the 60-bit ceiling with lazy digit
// operands pinned at the bound corners, up to the advertised capacity.
func TestAcc128Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	const n = 128
	tab := lazyTable(t, n)
	r := tab.R
	q := r.Q
	// Lazy digits (< 4q): 3 at the 60-bit ceiling — exactly the paper's
	// three-digit key switch. Folded digits (< 2q) fit more; strict
	// digits (< q) the most. Each case runs at its capacity limit, the
	// Barrett fold's p·2⁶⁴ boundary.
	for _, shape := range []struct {
		bound uint64
		nd    int
	}{
		{4 * q, 1},
		{4 * q, Acc128Capacity(q, q-1, 4*q-1)},
		{2 * q, Acc128Capacity(q, q-1, 2*q-1)},
		{q, Acc128Capacity(q, q-1, q-1)},
	} {
		nd := shape.nd
		if nd < 1 {
			t.Fatalf("no fusion capacity at q=%d bound=%d", q, shape.bound)
		}
		k0 := make([][]uint64, nd)
		k1 := make([][]uint64, nd)
		digits := make([][]uint64, nd)
		for d := range digits {
			k0[d] = pinnedLazy(rng, n, q, q)
			k1[d] = pinnedLazy(rng, n, q, q)
			digits[d] = pinnedLazy(rng, n, q, shape.bound)
		}
		idx := make([]uint32, n)
		for j := range idx {
			idx[j] = uint32(rng.Intn(n))
		}
		seed := pinnedLazy(rng, n, q, q)

		for _, tc := range []struct {
			name string
			run  func(a0, a1 []uint64)
			ref  func(a0, a1 []uint64)
		}{
			{"mulAddPair", func(a0, a1 []uint64) { MulAddPair128(r, a0, a1, k0, k1, digits) },
				func(a0, a1 []uint64) { naiveAccPair(r, a0, a1, k0, k1, digits, nil) }},
			{"mulPair", func(a0, a1 []uint64) { MulPair128(r, a0, a1, k0, k1, digits) },
				func(a0, a1 []uint64) {
					for j := range a0 {
						a0[j], a1[j] = 0, 0
					}
					naiveAccPair(r, a0, a1, k0, k1, digits, nil)
				}},
			{"galoisAccPair", func(a0, a1 []uint64) { GaloisAccPair128(r, a0, a1, k0, k1, digits, idx) },
				func(a0, a1 []uint64) { naiveAccPair(r, a0, a1, k0, k1, digits, idx) }},
		} {
			g0 := append([]uint64(nil), seed...)
			g1 := append([]uint64(nil), seed...)
			w0 := append([]uint64(nil), seed...)
			w1 := append([]uint64(nil), seed...)
			tc.run(g0, g1)
			tc.ref(w0, w1)
			for j := 0; j < n; j++ {
				if g0[j] != w0[j] || g1[j] != w1[j] {
					t.Fatalf("%s nd=%d: mismatch at %d: (%d,%d) != (%d,%d)",
						tc.name, nd, j, g0[j], g1[j], w0[j], w1[j])
				}
			}
		}
	}
}

func TestAcc128Capacity(t *testing.T) {
	// The paper shape: 60-bit prime, canonical keys, < 4p lazy digits —
	// exactly three digits fit (D·(p−1)(4p−1) + 2⁶⁴−1 < p·2⁶⁴).
	p := uint64(1) << 60
	if c := Acc128Capacity(p+1, p, 4*p+3); c != 3 {
		t.Fatalf("60-bit lazy capacity: got %d want 3", c)
	}
	// The bound is the Barrett fold's q·2⁶⁴ domain, not the 128-bit
	// register: at a 62-bit q with 62×63-bit products, one term (plus
	// the seed's full 2⁶⁴ allowance) is all that provably fits.
	if c := Acc128Capacity(1<<62-1, 1<<62-1, 1<<63); c != 1 {
		t.Fatalf("worst-case capacity: got %d want 1", c)
	}
	if c := Acc128Capacity(1<<40, 1<<20, 1<<20); c != 1<<30 {
		t.Fatalf("capacity cap: got %d", c)
	}
}

// TestAllocs asserts zero steady-state allocations on the NTT,
// pointwise-mul and fused-accumulation kernels.
func TestAllocs(t *testing.T) {
	tab := lazyTable(t, 1024)
	q := tab.R.Q
	rng := rand.New(rand.NewSource(76))
	a := pinnedLazy(rng, 1024, q, q)
	b := pinnedLazy(rng, 1024, q, q)
	dst := make([]uint64, 1024)
	k0 := [][]uint64{pinnedLazy(rng, 1024, q, q)}
	k1 := [][]uint64{pinnedLazy(rng, 1024, q, q)}
	digits := [][]uint64{pinnedLazy(rng, 1024, q, 4*q)}
	idx := make([]uint32, 1024)
	acc0 := make([]uint64, 1024)
	acc1 := make([]uint64, 1024)
	for name, fn := range map[string]func(){
		"Forward":      func() { tab.Forward(a) },
		"ForwardLazy":  func() { tab.ForwardLazy(a) },
		"Inverse":      func() { tab.Inverse(a) },
		"InverseLazy":  func() { tab.InverseLazy(a) },
		"PointwiseMul": func() { tab.PointwiseMul(dst, a, b) },
		"MulAddPair":   func() { MulAddPair128(tab.R, acc0, acc1, k0, k1, digits) },
		"GaloisAcc":    func() { GaloisAccPair128(tab.R, acc0, acc1, k0, k1, digits, idx) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per run; want 0", name, allocs)
		}
		// Keep a within the Forward/Inverse lazy input bounds for the
		// next kernel regardless of map order.
		for i := range a {
			a[i] %= q
		}
		_ = name
	}
}

// Kernel benchmarks at the paper's hot point (n=4096, 60-bit basis
// prime) — tracked by the benchmark-regression CI gate.

func benchVec(tab *Table, mul uint64) []uint64 {
	a := make([]uint64, tab.N)
	for i := range a {
		a[i] = uint64(i) * mul % tab.R.Q
	}
	return a
}

func BenchmarkNTTForward(b *testing.B) {
	tab := lazyTable(b, 4096)
	a := benchVec(tab, 12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Forward(a)
	}
}

func BenchmarkNTTForwardLazy(b *testing.B) {
	tab := lazyTable(b, 4096)
	a := benchVec(tab, 12345)
	b.ResetTimer()
	// ForwardLazy accepts its own lazy (< 4q) outputs, so the benchmark
	// self-feeds with no reduction — the true per-transform cost.
	for i := 0; i < b.N; i++ {
		tab.ForwardLazy(a)
	}
}

func BenchmarkNTTInverse(b *testing.B) {
	tab := lazyTable(b, 4096)
	a := benchVec(tab, 54321)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Inverse(a)
	}
}

func BenchmarkGaloisAccPair128(b *testing.B) {
	tab := lazyTable(b, 4096)
	q := tab.R.Q
	rng := rand.New(rand.NewSource(77))
	const nd = 3
	k0 := make([][]uint64, nd)
	k1 := make([][]uint64, nd)
	digits := make([][]uint64, nd)
	for d := 0; d < nd; d++ {
		k0[d] = pinnedLazy(rng, 4096, q, q)
		k1[d] = pinnedLazy(rng, 4096, q, q)
		digits[d] = pinnedLazy(rng, 4096, q, 4*q)
	}
	idx := make([]uint32, 4096)
	for j := range idx {
		idx[j] = uint32(rng.Intn(4096))
	}
	acc0 := make([]uint64, 4096)
	acc1 := make([]uint64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GaloisAccPair128(tab.R, acc0, acc1, k0, k1, digits, idx)
	}
}

func ExampleAcc128Capacity() {
	// A 60-bit prime with canonical keys and < 4p lazy digits fuses the
	// paper's three-digit key switch in one fold.
	p := uint64(1) << 60
	fmt.Println(Acc128Capacity(p+1, p, 4*p+3) >= 3)
	// Output: true
}
