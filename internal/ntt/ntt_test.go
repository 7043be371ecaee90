package ntt

import (
	"math/rand"
	"testing"

	"repro/internal/nt"
)

func testTable(t *testing.T, bits uint, n int) *Table {
	t.Helper()
	q, err := nt.NTTPrime(bits, n)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(q, n)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, n := range []int{4, 8, 64, 256, 1024, 4096} {
		tab := testTable(t, 50, n)
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % tab.R.Q
		}
		orig := append([]uint64(nil), a...)
		tab.Forward(a)
		tab.Inverse(a)
		for i := range a {
			if a[i] != orig[i] {
				t.Fatalf("n=%d: round trip mismatch at %d: %d != %d", n, i, a[i], orig[i])
			}
		}
	}
}

func TestForwardIsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tab := testTable(t, 50, 256)
	n := tab.N
	a := make([]uint64, n)
	b := make([]uint64, n)
	sum := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % tab.R.Q
		b[i] = rng.Uint64() % tab.R.Q
		sum[i] = tab.R.Add(a[i], b[i])
	}
	tab.Forward(a)
	tab.Forward(b)
	tab.Forward(sum)
	for i := range sum {
		if sum[i] != tab.R.Add(a[i], b[i]) {
			t.Fatalf("NTT(a+b) != NTT(a)+NTT(b) at %d", i)
		}
	}
}

func TestNewTableErrors(t *testing.T) {
	if _, err := NewTable(97, 3); err == nil {
		t.Error("expected error for non-power-of-two size")
	}
	// 97 ≡ 1 mod 32 fails for n=64 (2n=128 does not divide 96).
	if _, err := NewTable(97, 64); err == nil {
		t.Error("expected error for non-NTT-friendly prime")
	}
}

func BenchmarkForward4096(b *testing.B) {
	q, _ := nt.NTTPrime(50, 4096)
	tab, _ := NewTable(q, 4096)
	rng := rand.New(rand.NewSource(64))
	a := make([]uint64, 4096)
	for i := range a {
		a[i] = rng.Uint64() % q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Forward(a)
	}
}

func TestGetTableCachesPerPair(t *testing.T) {
	q, err := nt.NTTPrime(50, 128)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := GetTable(q, 128)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := GetTable(q, 128)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("GetTable returned distinct tables for the same (q, n)")
	}
	t3, err := GetTable(q, 64)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Error("GetTable shared a table across different degrees")
	}
	if _, err := GetTable(q+2, 128); err == nil {
		t.Error("GetTable accepted a non-NTT-friendly modulus")
	}
}

// TestLazyReductionBoundary drives the butterflies with the extreme
// inputs (all coefficients q-1) that maximize the lazy accumulators, and
// checks outputs stay canonical.
func TestLazyReductionBoundary(t *testing.T) {
	for _, n := range []int{8, 256, 1024} {
		tab := testTable(t, 60, n)
		a := make([]uint64, n)
		for i := range a {
			a[i] = tab.R.Q - 1
		}
		fwd := append([]uint64(nil), a...)
		tab.Forward(fwd)
		for i, v := range fwd {
			if v >= tab.R.Q {
				t.Fatalf("n=%d: Forward output %d = %d not reduced", n, i, v)
			}
		}
		tab.Inverse(fwd)
		for i, v := range fwd {
			if v != a[i] {
				t.Fatalf("n=%d: round trip differs at %d", n, i)
			}
		}
	}
}
