package bfv

import (
	"fmt"
	"testing"

	"repro/internal/sampling"
)

// Benchmarks pitting the double-CRT backend against the schoolbook path
// it replaced, at the 54-bit modulus (the acceptance point of the
// backend: ≥10× on EvalMul at n=4096) across two ring degrees.

// paramsSec54AtDegree returns the 54-bit modulus at a custom power-of-two
// ring degree — the axis the double-CRT perf-tracking benchmarks sweep.
func paramsSec54AtDegree(n int) *Parameters { return mustParams(n, prime54, 16, 18) }

func benchmarkEvalMul(b *testing.B, n int, schoolbook bool) {
	params := paramsSec54AtDegree(n)
	src := sampling.NewSourceFromUint64(uint64(n))
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	enc := NewEncryptor(params, pk, src)
	ct0, err := enc.EncryptValue(11)
	if err != nil {
		b.Fatal(err)
	}
	ct1, err := enc.EncryptValue(13)
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(params, rlk)
	if schoolbook {
		ev = NewSchoolbookEvaluator(params, rlk)
	}
	// Warm the caches (twiddle tables, key forms) outside the timer.
	if _, err := ev.Mul(ct0, ct1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Mul(ct0, ct1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalMulSchoolbook(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkEvalMul(b, n, true)
		})
	}
}

func BenchmarkEvalMulDCRT(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkEvalMul(b, n, false)
		})
	}
}

// benchmarkEvalMulDepth times a depth-long chain of relinearized
// multiplications per iteration — the workload shape the NTT-resident
// ciphertext cache and the RNS-native rescale exist for.
func benchmarkEvalMulDepth(b *testing.B, n, depth int) {
	params := paramsSec54AtDegree(n)
	src := sampling.NewSourceFromUint64(uint64(n + depth))
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	_ = sk
	enc := NewEncryptor(params, pk, src)
	ct0, err := enc.EncryptValue(11)
	if err != nil {
		b.Fatal(err)
	}
	ct1, err := enc.EncryptValue(13)
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(params, rlk)
	chain := func() {
		ct := ct0
		for d := 0; d < depth; d++ {
			next, err := ev.Mul(ct, ct1)
			if err != nil {
				b.Fatal(err)
			}
			ct = next
		}
	}
	chain() // warm the caches (twiddle tables, key and operand forms)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain()
	}
}

// The path=rns sub-benchmark name is what .github/bench-baseline.txt
// tracks.
func benchmarkDepth(b *testing.B, depth int) {
	b.Run("path=rns", func(b *testing.B) { benchmarkEvalMulDepth(b, 4096, depth) })
}

func BenchmarkEvalMulDepth1(b *testing.B) { benchmarkDepth(b, 1) }
func BenchmarkEvalMulDepth3(b *testing.B) { benchmarkDepth(b, 3) }
func BenchmarkEvalMulDepth5(b *testing.B) { benchmarkDepth(b, 5) }

// benchmarkMulChainDeferred times the same depth-long chain through the
// NTT-resident pipeline: every level consumes the previous level's
// deferred handle and only the final result materializes — coefficients
// are packed once per chain instead of once per level.
func benchmarkMulChainDeferred(b *testing.B, n, depth int) {
	params := paramsSec54AtDegree(n)
	src := sampling.NewSourceFromUint64(uint64(n + depth))
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	_ = sk
	enc := NewEncryptor(params, pk, src)
	ct0, err := enc.EncryptValue(11)
	if err != nil {
		b.Fatal(err)
	}
	ct1, err := enc.EncryptValue(13)
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(params, rlk)
	if !ev.CanDeferMuls() {
		b.Fatal("deferred multiplication unavailable on this configuration")
	}
	chain := func() {
		var cur Value = ct0
		var prev *ProductNTT
		for d := 0; d < depth; d++ {
			next, err := ev.MulNTT(cur, ct1)
			if err != nil {
				b.Fatal(err)
			}
			if prev != nil {
				prev.Release()
			}
			cur, prev = next, next
		}
		prev.Materialize()
		prev.Release()
	}
	chain() // warm the caches (twiddle tables, key and operand forms)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain()
	}
}

func BenchmarkMulChainDeferred1(b *testing.B) { benchmarkMulChainDeferred(b, 4096, 1) }
func BenchmarkMulChainDeferred3(b *testing.B) { benchmarkMulChainDeferred(b, 4096, 3) }

// BenchmarkMulManySum measures the dot-product reduction Σᵢ aᵢ·bᵢ over 8
// pairs, materialized (MulMany + Add fold) vs deferred (MulManyNTT + RNS
// domain Add fold, one final conversion pair).
func BenchmarkMulManySum(b *testing.B) {
	const pairs = 8
	params := paramsSec54AtDegree(4096)
	src := sampling.NewSourceFromUint64(4096 + pairs)
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	_ = sk
	enc := NewEncryptor(params, pk, src)
	as := make([]*Ciphertext, pairs)
	bs := make([]*Ciphertext, pairs)
	aOps := make([]Value, pairs)
	bOps := make([]Value, pairs)
	for i := range as {
		var err error
		if as[i], err = enc.EncryptValue(uint64(2 + i)); err != nil {
			b.Fatal(err)
		}
		if bs[i], err = enc.EncryptValue(uint64(3 + i)); err != nil {
			b.Fatal(err)
		}
		aOps[i], bOps[i] = as[i], bs[i]
	}
	be := NewBatchEvaluator(params, rlk)
	ev := be.ev
	b.Run("path=materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prods, err := be.MulMany(as, bs)
			if err != nil {
				b.Fatal(err)
			}
			acc := prods[0]
			for _, p := range prods[1:] {
				acc = ev.Add(acc, p)
			}
		}
	})
	b.Run("path=deferred", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prods, err := be.MulManyNTT(aOps, bOps)
			if err != nil {
				b.Fatal(err)
			}
			acc := prods[0]
			for _, p := range prods[1:] {
				sum, ok := acc.Add(p)
				if !ok {
					b.Fatal("deferred sum fell back")
				}
				acc.Release()
				p.Release()
				acc = sum
			}
			acc.Materialize()
			acc.Release()
		}
	})
}

// BenchmarkEncrypt tracks the non-Mul side of the double-CRT win: fresh
// encryption was two schoolbook products per ciphertext.
func BenchmarkEncrypt(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			params := paramsSec54AtDegree(n)
			src := sampling.NewSourceFromUint64(uint64(n))
			kg := NewKeyGenerator(params, src)
			_, pk := kg.GenKeyPair()
			enc := NewEncryptor(params, pk, src)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enc.EncryptValue(7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rotationRig builds the n=4096/54-bit fixture the hoisting acceptance
// criterion is measured on: one ciphertext, k Galois keys.
func rotationRig(b *testing.B, n, k int) (*Evaluator, *Ciphertext, []*GaloisKey) {
	b.Helper()
	params := paramsSec54AtDegree(n)
	src := sampling.NewSourceFromUint64(uint64(n + k))
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	enc := NewEncryptor(params, pk, src)
	ct, err := enc.EncryptValue(11)
	if err != nil {
		b.Fatal(err)
	}
	gks := make([]*GaloisKey, k)
	g := uint64(1)
	for i := range gks {
		g = g * 3 % uint64(2*n)
		gk, err := kg.GenGaloisKey(sk, g)
		if err != nil {
			b.Fatal(err)
		}
		gks[i] = gk
	}
	return NewEvaluator(params, nil), ct, gks
}

// BenchmarkRotateSerial is the unhoisted baseline: k independent
// ApplyGalois calls (k digit decompositions) per iteration.
func BenchmarkRotateSerial(b *testing.B) {
	ev, ct, gks := rotationRig(b, 4096, 8)
	for _, gk := range gks { // warm key forms and operand caches
		if _, err := ev.ApplyGalois(ct, gk); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gk := range gks {
			if _, err := ev.ApplyGalois(ct, gk); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRotateHoisted is the same k rotations through one hoisted
// digit decomposition (BatchEvaluator.RotateMany).
func BenchmarkRotateHoisted(b *testing.B) {
	ev, ct, gks := rotationRig(b, 4096, 8)
	be := NewBatchEvaluatorFrom(ev)
	if _, err := be.RotateMany(ct, gks); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := be.RotateMany(ct, gks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRotateHoistedNTT is the same k rotations with the per-output
// base conversions deferred (RotateManyNTT): the cost of producing the
// rotations for a consumer that aggregates or discards them in NTT form.
func BenchmarkRotateHoistedNTT(b *testing.B) {
	ev, ct, gks := rotationRig(b, 4096, 8)
	be := NewBatchEvaluatorFrom(ev)
	release := func(rots []*RotatedNTT) {
		for _, r := range rots {
			r.Release()
		}
	}
	rots, err := be.RotateManyNTT(ct, gks)
	if err != nil {
		b.Fatal(err)
	}
	release(rots)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rots, err := be.RotateManyNTT(ct, gks)
		if err != nil {
			b.Fatal(err)
		}
		release(rots)
	}
}

// BenchmarkRotateSumSerial / BenchmarkRotateSumHoisted measure the
// batched rotate-and-sum workload (ct + Σ_g τ_g(ct)): the serial side
// folds per-rotation ApplyGalois with Add; the hoisted side shares one
// decomposition and one fused extended-basis reduction.
func BenchmarkRotateSumSerial(b *testing.B) {
	ev, ct, gks := rotationRig(b, 4096, 8)
	rotateSum := func() {
		acc := ct.Clone()
		for _, gk := range gks {
			r, err := ev.ApplyGalois(ct, gk)
			if err != nil {
				b.Fatal(err)
			}
			acc = ev.Add(acc, r)
		}
	}
	rotateSum()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rotateSum()
	}
}

func BenchmarkRotateSumHoisted(b *testing.B) {
	ev, ct, gks := rotationRig(b, 4096, 8)
	be := NewBatchEvaluatorFrom(ev)
	cts := []*Ciphertext{ct}
	if _, err := be.RotateAndSum(cts, gks); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := be.RotateAndSum(cts, gks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecrypt tracks the RNS-native decryption (the path=rns name
// is what .github/bench-baseline.txt tracks).
func BenchmarkDecrypt(b *testing.B) {
	params := paramsSec54AtDegree(4096)
	src := sampling.NewSourceFromUint64(99)
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	enc := NewEncryptor(params, pk, src)
	dec := NewDecryptor(params, sk)
	ct, err := enc.EncryptValue(7)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("path=rns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pt, ok := dec.decryptRNS(ct); !ok || pt.Coeffs[0] != 7 {
				b.Fatal("rns decrypt failed")
			}
		}
	})
}
