package bfv

import (
	"testing"

	"repro/internal/sampling"
)

// mulNTTRig builds a small RNS-native fixture: keys, two fresh
// encryptions, the deferring evaluator and the schoolbook oracle.
func mulNTTRig(t *testing.T, n int, seed uint64) (*Evaluator, *Evaluator, *Decryptor, *Ciphertext, *Ciphertext) {
	t.Helper()
	params := paramsSec54AtDegree(n)
	src := sampling.NewSourceFromUint64(seed)
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	enc := NewEncryptor(params, pk, src)
	ct0, err := enc.EncryptValue(11)
	if err != nil {
		t.Fatal(err)
	}
	ct1, err := enc.EncryptValue(13)
	if err != nil {
		t.Fatal(err)
	}
	return NewEvaluator(params, rlk), NewSchoolbookEvaluator(params, rlk), NewDecryptor(params, sk), ct0, ct1
}

// TestMulNTTMaterializeBitIdentical: a deferred product materializes to
// exactly Evaluator.Mul's (and the schoolbook oracle's) ciphertext.
func TestMulNTTBitIdentical(t *testing.T) {
	ev, oracle, _, ct0, ct1 := mulNTTRig(t, 64, 31)
	if !ev.CanDeferMuls() {
		t.Fatal("expected deferred multiplication on the RNS-native backend")
	}
	prod, err := ev.MulNTT(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	got := prod.Materialize()
	prod.Release()
	want, err := ev.Mul(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("MulNTT ≠ Mul")
	}
	sb, err := oracle.Mul(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sb) {
		t.Fatal("MulNTT ≠ schoolbook oracle")
	}
}

// TestMulNTTChain: a depth-3 chain through deferred handles (each level
// consuming the previous handle) is bit-identical to the materialized
// chain, and Square through MulNTT(x, x) matches Square.
func TestMulNTTChain(t *testing.T) {
	ev, oracle, _, ct0, ct1 := mulNTTRig(t, 64, 32)
	var cur Value = ct0
	var prev *ProductNTT
	for d := 0; d < 3; d++ {
		next, err := ev.MulNTT(cur, ct1)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			prev.Release()
		}
		cur, prev = next, next
	}
	got := prev.Materialize()
	prev.Release()

	want := ct0
	for d := 0; d < 3; d++ {
		next, err := oracle.Mul(want, ct1)
		if err != nil {
			t.Fatal(err)
		}
		want = next
	}
	if !got.Equal(want) {
		t.Fatal("deferred chain ≠ schoolbook chain")
	}

	sq, err := ev.MulNTT(ct0, ct0)
	if err != nil {
		t.Fatal(err)
	}
	gotSq := sq.Materialize()
	sq.Release()
	wantSq, err := ev.Mul(ct0, ct0)
	if err != nil {
		t.Fatal(err)
	}
	if !gotSq.Equal(wantSq) {
		t.Fatal("MulNTT(x,x) ≠ Square(x)")
	}

	// Square of a deferred handle: both tensor operands arrive lazily
	// (the ForwardLazy-bounded centered forms), exercising the fold-
	// before-Barrett guards of the pair kernel.
	ph, err := ev.MulNTT(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	sqd, err := ev.MulNTT(ph, ph)
	if err != nil {
		t.Fatal(err)
	}
	gotSqD := sqd.Materialize()
	sqd.Release()
	wantSqD, err := ev.Mul(ph.Materialize(), ph.Materialize())
	if err != nil {
		t.Fatal(err)
	}
	ph.Release()
	if !gotSqD.Equal(wantSqD) {
		t.Fatal("deferred MulNTT(p,p) ≠ Square(p)")
	}
}

// TestMulNTTAddFusion: deferred sums of products equal the materialized
// Add fold, and the fusion reports false after materialization.
func TestMulNTTAddFusion(t *testing.T) {
	ev, _, _, ct0, ct1 := mulNTTRig(t, 64, 33)
	p1, err := ev.MulNTT(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ev.MulNTT(ct1, ct1)
	if err != nil {
		t.Fatal(err)
	}
	sum, ok := p1.Add(p2)
	if !ok {
		t.Fatal("deferred product sum fell back")
	}
	got := sum.Materialize()
	sum.Release()
	want := ev.Add(p1.Materialize(), p2.Materialize())
	if !got.Equal(want) {
		t.Fatal("deferred sum ≠ materialized Add")
	}
	// Materialized handles refuse to fuse (callers fall back).
	if _, ok := p1.Add(p2); ok {
		t.Fatal("Add fused materialized handles")
	}
	p1.Release()
	p2.Release()
}

// TestMulNTTFallback: on backends that cannot defer, MulNTT returns an
// already-materialized handle identical to Mul.
func TestMulNTTFallback(t *testing.T) {
	_, oracle, _, ct0, ct1 := mulNTTRig(t, 64, 34)
	if oracle.CanDeferMuls() {
		t.Fatal("schoolbook evaluator should not defer")
	}
	prod, err := oracle.MulNTT(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Mul(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Materialize().Equal(want) {
		t.Fatal("fallback MulNTT ≠ Mul")
	}
	prod.Release() // no-op on materialized handles
}

// TestMulManyNTTSum: the batched deferred products and their RNS-domain
// fold decrypt to the same dot product the materialized pipeline yields.
func TestMulManyNTTSum(t *testing.T) {
	params := paramsSec54AtDegree(64)
	src := sampling.NewSourceFromUint64(35)
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	enc := NewEncryptor(params, pk, src)
	dec := NewDecryptor(params, sk)
	const pairs = 4
	as := make([]Value, pairs)
	bs := make([]Value, pairs)
	rawA := make([]*Ciphertext, pairs)
	rawB := make([]*Ciphertext, pairs)
	for i := 0; i < pairs; i++ {
		var err error
		if rawA[i], err = enc.EncryptValue(uint64(2 + i)); err != nil {
			t.Fatal(err)
		}
		if rawB[i], err = enc.EncryptValue(uint64(3 + i)); err != nil {
			t.Fatal(err)
		}
		as[i], bs[i] = rawA[i], rawB[i]
	}
	be := NewBatchEvaluator(params, rlk)
	prods, err := be.MulManyNTT(as, bs)
	if err != nil {
		t.Fatal(err)
	}
	acc := prods[0]
	for _, p := range prods[1:] {
		sum, ok := acc.Add(p)
		if !ok {
			t.Fatal("deferred fold fell back")
		}
		acc.Release()
		p.Release()
		acc = sum
	}
	got := acc.Materialize()
	acc.Release()

	want, err := be.MulMany(rawA, rawB)
	if err != nil {
		t.Fatal(err)
	}
	ref := want[0]
	for _, ct := range want[1:] {
		ref = be.ev.Add(ref, ct)
	}
	if !got.Equal(ref) {
		t.Fatal("deferred dot product ≠ materialized")
	}
	var total uint64
	for i := 0; i < pairs; i++ {
		total += uint64(2+i) * uint64(3+i)
	}
	if v := dec.Decrypt(got).Coeffs[0]; v != total%params.T {
		t.Fatalf("dot product decrypts to %d, want %d", v, total%params.T)
	}
}

// TestMulNTTLongFold regression-tests the deferred-sum lazy bound: a
// long ProductNTT.Add fold must keep every limb word inside the < 2p
// lazy window. A strict fold lets a slot near the 2p ceiling creep up
// by ~p per sum and wrap uint64 after ~14 sums at the 60-bit basis
// primes — corrupting the result while reporting success — so folding
// one product onto itself 30 times (inside the exact-integer magnitude
// budget) deterministically exposes it; the fold must both stay
// deferred and match the materialized Add chain bit for bit.
func TestMulNTTLongFold(t *testing.T) {
	ev, _, _, ct0, ct1 := mulNTTRig(t, 64, 36)
	p, err := ev.MulNTT(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	const folds = 30
	acc := p
	for i := 0; i < folds; i++ {
		sum, ok := acc.Add(p)
		if !ok {
			t.Fatalf("deferred fold fell back at term %d", i)
		}
		acc = sum
	}
	got := acc.Materialize()
	want := p.Materialize()
	one := want
	for i := 0; i < folds; i++ {
		want = ev.Add(want, one)
	}
	if !got.Equal(want) {
		t.Fatal("long deferred fold diverged from materialized Add chain")
	}
}
