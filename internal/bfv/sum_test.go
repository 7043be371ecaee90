package bfv

import (
	"runtime"
	"testing"

	"repro/internal/limb32"
)

// sumOperands encrypts k ciphertexts under ParamsBatching, cycling eight
// distinct encryptions.
func sumOperands(t testing.TB, c *ctx, k int) []*Ciphertext {
	t.Helper()
	base := make([]*Ciphertext, 8)
	for i := range base {
		ct, err := c.enc.EncryptValue(uint64(100 + i))
		if err != nil {
			t.Fatal(err)
		}
		base[i] = ct
	}
	cts := make([]*Ciphertext, k)
	for i := range cts {
		cts[i] = base[i%len(base)]
	}
	return cts
}

// TestSumMatchesSchoolbookFold pins the double-CRT evaluator's one-pass,
// lazily reduced Sum to a slice-order fold of limb32.AddMod over every
// coefficient — an oracle independent of poly.Add's word-level core —
// bit for bit, including a mixed-degree input, and checks that a
// one-operand sum does not alias its input.
func TestSumMatchesSchoolbookFold(t *testing.T) {
	params := ParamsBatching()
	c := newCtx(t, params, 2401, false)
	fold := func(cts []*Ciphertext) *Ciphertext {
		acc := cts[0].Clone()
		for _, ct := range cts[1:] {
			for i, p := range ct.Polys {
				if i == len(acc.Polys) { // a missing component counts as zero
					acc.Polys = append(acc.Polys, p.Clone())
					continue
				}
				for j := 0; j < p.N; j++ {
					dst := acc.Polys[i].Coeff(j)
					limb32.AddMod(dst, dst, p.Coeff(j), params.Q.Q, nil)
				}
			}
		}
		return acc
	}

	cts := sumOperands(t, c, 257)
	for _, k := range []int{1, 2, 3, 257} {
		if got := c.eval.Sum(cts[:k]); !got.Equal(fold(cts[:k])) {
			t.Fatalf("Sum of %d differs from the schoolbook fold", k)
		}
	}

	sq, err := c.eval.MulNoRelin(cts[0], cts[1])
	if err != nil {
		t.Fatal(err)
	}
	mixed := []*Ciphertext{cts[2], sq, cts[3], cts[4]}
	got := c.eval.Sum(mixed)
	if got.Degree() != 2 || !got.Equal(fold(mixed)) {
		t.Fatal("mixed-degree Sum differs from the schoolbook fold")
	}

	in := cts[5].Clone()
	one := c.eval.Sum(cts[5:6])
	one.Polys[0].C[0] ^= 1
	if !cts[5].Equal(in) {
		t.Fatal("mutating a one-operand Sum changed its input")
	}
}

// TestSumAllocatesOneCiphertext is a CI allocation gate: a steady-state
// Sum of 64 on the double-CRT backend allocates its one output
// ciphertext and next to nothing else (an Add fold allocates 63).
func TestSumAllocatesOneCiphertext(t *testing.T) {
	params := ParamsBatching()
	c := newCtx(t, params, 2402, false)
	cts := sumOperands(t, c, 64)
	c.eval.Sum(cts) // warm the worker pool
	ctBytes := uint64(2 * params.N * params.Q.W * 4)
	var best uint64
	for rep := 0; rep < 3; rep++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c.eval.Sum(cts)
		runtime.ReadMemStats(&m1)
		if d := m1.TotalAlloc - m0.TotalAlloc; rep == 0 || d < best {
			best = d
		}
	}
	if limit := ctBytes * 11 / 10; best > limit {
		t.Fatalf("Sum of 64 allocated %d bytes, want ≤ %d (1.1 × one %d-byte ciphertext)", best, limit, ctBytes)
	}
	t.Logf("Sum of 64 allocated %d bytes; one ciphertext is %d", best, ctBytes)
}
