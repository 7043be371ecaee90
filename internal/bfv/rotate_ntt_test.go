package bfv

import (
	"testing"

	"repro/internal/polypool"
	"repro/internal/sampling"
)

// NTT-resident rotation outputs: RotateManyNTT must reproduce RotateMany
// (and hence ApplyGalois) bit for bit once materialized, and deferred
// NTT-domain sums must match coefficient-domain addition.

func TestRotatedNTTMatchesRotateMany(t *testing.T) {
	params := ParamsSec27()
	c := newCtx(t, params, 501, false)
	gks := genGaloisKeys(t, params, c.sk, 502, 5)
	ct, err := c.enc.EncryptValue(17)
	if err != nil {
		t.Fatal(err)
	}
	be := NewBatchEvaluatorFrom(c.eval)
	want, err := be.RotateMany(ct, gks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := be.RotateManyNTT(ct, gks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gks {
		m := got[i].Materialize()
		if !m.Equal(want[i]) {
			t.Fatalf("rotation %d (g=%d): materialized deferred output differs", i, gks[i].G)
		}
		// Materialize is cached: a second call returns the same ciphertext.
		if got[i].Materialize() != m {
			t.Fatalf("rotation %d: Materialize not cached", i)
		}
		got[i].Release()
	}
}

func TestRotatedNTTAddMatchesCoefficientAdd(t *testing.T) {
	params := ParamsSec27()
	c := newCtx(t, params, 503, false)
	gks := genGaloisKeys(t, params, c.sk, 504, 4)
	ct, err := c.enc.EncryptValue(23)
	if err != nil {
		t.Fatal(err)
	}
	be := NewBatchEvaluatorFrom(c.eval)
	rots, err := be.RotateManyNTT(ct, gks)
	if err != nil {
		t.Fatal(err)
	}

	// Fold all deferred outputs in the NTT domain; the materialized sum
	// must equal folding the materialized outputs with Add in slice order.
	acc := rots[0]
	for _, r := range rots[1:] {
		next, ok := acc.Add(r)
		if !ok {
			t.Fatal("deferred Add refused within the exactness window")
		}
		acc = next
	}
	want, err := c.eval.ApplyGalois(ct, gks[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, gk := range gks[1:] {
		r, err := c.eval.ApplyGalois(ct, gk)
		if err != nil {
			t.Fatal(err)
		}
		want = c.eval.Add(want, r)
	}
	if !acc.Materialize().Equal(want) {
		t.Fatal("NTT-domain deferred sum differs from coefficient-domain Add fold")
	}
}

// TestDeferredReleaseReturnsMaterialized: Release on a deferred value
// that was materialized hands the ciphertext back to the evaluator's
// allocator — rotations and products alike — so once every output is
// released the pool holds nothing.
func TestDeferredReleaseReturnsMaterialized(t *testing.T) {
	params := ParamsToy()
	c := newCtx(t, params, 505, true)
	gks := genGaloisKeys(t, params, c.sk, 506, 2)
	ct, err := c.enc.EncryptValue(5)
	if err != nil {
		t.Fatal(err)
	}
	pool := polypool.New(1 << 20)
	c.eval.Alloc = pool
	owned, err := NewBatchEvaluatorFrom(c.eval).RotateManyNTT(ct, gks)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := c.eval.MulNTT(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	owned = append(owned, prod)
	for _, d := range owned {
		d.Materialize()
	}
	if s := pool.Stats(); s.InUse == 0 {
		t.Fatal("materialized outputs did not draw on the evaluator's allocator")
	}
	for _, d := range owned {
		d.Release()
	}
	if s := pool.Stats(); s.InUse != 0 {
		t.Fatalf("released materialized handles keep their backings: %+v", s)
	}
}

func TestRotatedNTTAddRefusesPastBound(t *testing.T) {
	params := ParamsSec27()
	c := newCtx(t, params, 507, false)
	gks := genGaloisKeys(t, params, c.sk, 508, 1)
	ct, err := c.enc.EncryptValue(3)
	if err != nil {
		t.Fatal(err)
	}
	be := NewBatchEvaluatorFrom(c.eval)
	rots, err := be.RotateManyNTT(ct, gks)
	if err != nil {
		t.Fatal(err)
	}
	// Doubling the magnitude bound each Add must eventually hit the basis
	// exactness window and refuse — never silently wrap.
	acc := rots[0]
	for i := 0; i < 200; i++ {
		next, ok := acc.Add(acc)
		if !ok {
			return
		}
		if next.magBits <= acc.magBits {
			t.Fatal("deferred Add did not grow the magnitude bound")
		}
		acc = next
	}
	t.Fatal("deferred Add never refused past the exactness window")
}

// TestDeferredAddRefusesMixedDomains: a deferred product lives in the
// residue domain and a deferred rotation in the NTT domain, so their sum
// cannot stay deferred — Add reports false either way round, and the
// caller's materialized fallback equals adding the eager outputs.
func TestDeferredAddRefusesMixedDomains(t *testing.T) {
	params := ParamsSec27()
	c := newCtx(t, params, 509, true)
	gks := genGaloisKeys(t, params, c.sk, 510, 1)
	ct, err := c.enc.EncryptValue(6)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := c.eval.MulNTT(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	rots, err := NewBatchEvaluatorFrom(c.eval).RotateManyNTT(ct, gks)
	if err != nil {
		t.Fatal(err)
	}
	rot := rots[0]
	if _, ok := prod.Add(rot); ok {
		t.Fatal("deferred product + deferred rotation stayed deferred")
	}
	if _, ok := rot.Add(prod); ok {
		t.Fatal("deferred rotation + deferred product stayed deferred")
	}
	got := c.eval.Add(prod.Materialize(), rot.Materialize())
	mul, err := c.eval.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.eval.ApplyGalois(ct, gks[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(c.eval.Add(mul, r)) {
		t.Fatal("materialized mixed-domain sum differs from the eager operations")
	}
	prod.Release()
	rot.Release()
}

// TestRotateManyNTTAllocs pins the steady-state allocation count of one
// warm deferred rotation batch at ParamsBatching (RotateManyNTT under 4
// keys, then Release of every output): the hoisted decomposition and
// the accumulators come from pooled scratch, so only the handles and
// small per-call headers may allocate. The bound is the count measured
// before products and rotations shared one deferred type.
func TestRotateManyNTTAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const maxAllocs = 19
	params := ParamsBatching()
	src := sampling.NewSourceFromUint64(4110)
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	gks := genGaloisKeys(t, params, sk, 4111, 4)
	ct, err := NewEncryptor(params, pk, src).EncryptValue(11)
	if err != nil {
		t.Fatal(err)
	}
	be := NewBatchEvaluator(params, nil)
	rotate := func() {
		rots, err := be.RotateManyNTT(ct, gks)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rots {
			r.Release()
		}
	}
	rotate() // warm the key forms, the ciphertext's cached form and the pools
	allocs := testing.AllocsPerRun(20, rotate)
	t.Logf("warm RotateManyNTT (4 keys) + Release: %.0f allocations per run", allocs)
	if allocs > maxAllocs {
		t.Fatalf("warm RotateManyNTT (4 keys) + Release allocates %.0f times per run, want ≤ %d", allocs, maxAllocs)
	}
}
