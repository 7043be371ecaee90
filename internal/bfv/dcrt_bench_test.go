package bfv

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/poly"
	"repro/internal/polypool"
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
	var ev interface {
		Mul(a, b *Ciphertext) (*Ciphertext, error)
	} = NewEvaluator(params, rlk)
	if schoolbook {
		ev = NewOracle(params, rlk)
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
	chain := func() {
		var cur Value = ct0
		var prev *Deferred
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

// batchingMulRig builds the served-parameter product fixture
// (ParamsBatching: 109-bit q, n=4096, t=65537, four relinearization
// digits): the deferring evaluator and two fresh ciphertexts whose NTT
// forms one warm-up product has cached.
func batchingMulRig(tb testing.TB) (*Evaluator, *Ciphertext, *Ciphertext) {
	tb.Helper()
	params := ParamsBatching()
	src := sampling.NewSourceFromUint64(4109)
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	ev := NewEvaluator(params, kg.GenRelinKey(sk))
	enc := NewEncryptor(params, pk, src)
	ct0, err := enc.EncryptValue(11)
	if err != nil {
		tb.Fatal(err)
	}
	ct1, err := enc.EncryptValue(13)
	if err != nil {
		tb.Fatal(err)
	}
	warm, err := ev.MulNTT(ct0, ct1)
	if err != nil {
		tb.Fatal(err)
	}
	warm.Release()
	return ev, ct0, ct1
}

// BenchmarkMulNTTBatching times one deferred product plus its
// materialization at the parameters every measured host workload runs —
// the two-word (109-bit) base conversions and scale-and-round, which no
// 54-bit row reaches.
func BenchmarkMulNTTBatching(b *testing.B) {
	ev, ct0, ct1 := batchingMulRig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ev.MulNTT(ct0, ct1)
		if err != nil {
			b.Fatal(err)
		}
		p.Materialize()
	}
}

// batchingCiphertext returns ParamsBatching and one fresh encryption
// under it, without the relinearization key the product rig builds.
func batchingCiphertext(tb testing.TB) (*Parameters, *Ciphertext) {
	tb.Helper()
	params := ParamsBatching()
	src := sampling.NewSourceFromUint64(4109)
	_, pk := NewKeyGenerator(params, src).GenKeyPair()
	ct, err := NewEncryptor(params, pk, src).EncryptValue(11)
	if err != nil {
		tb.Fatal(err)
	}
	return params, ct
}

// BenchmarkToRNSCenteredBatching times the entry of one freshly decoded
// 109-bit polynomial (n = 4096) into double-CRT form: the word kernel and
// the K = 4 forward transforms a served product pays per operand
// component before its tensor product starts.
func BenchmarkToRNSCenteredBatching(b *testing.B) {
	params, ct := batchingCiphertext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if params.dcrtCtx.ToRNSCentered(ct.Polys[0]) == nil {
			b.Fatal("no double-CRT form")
		}
	}
}

// BenchmarkReadCiphertextBatching times the pooled decode of one
// ParamsBatching ciphertext record (two 64 KiB polynomials): the chunked
// copy with its fused canonicity check, drawing and returning backings
// through a polypool.Pool the way the serving path does. One untimed
// decode warms the pool, so even a single iteration measures the
// steady state.
func BenchmarkReadCiphertextBatching(b *testing.B) {
	params, ct := batchingCiphertext(b)
	var wire bytes.Buffer
	if err := ct.Serialize(&wire); err != nil {
		b.Fatal(err)
	}
	blob := wire.Bytes()
	pool := polypool.New(1 << 20)
	r := bytes.NewReader(blob)
	decode := func() {
		r.Reset(blob)
		got, err := ReadCiphertextBacked(r, params, pool)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range got.Polys {
			pool.Put(p.C)
		}
	}
	decode()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}

// BenchmarkReadKeySetBatching times one evaluation-only key-set import
// at ParamsBatching: a public key, a relinearization key and 8 Galois
// keys read back to back from an in-memory buffer (≈ 4.7 MB), the key
// records a served tenant uploads once when it onboards. One untimed
// read warms the chunk pool.
func BenchmarkReadKeySetBatching(b *testing.B) {
	params := ParamsBatching()
	src := sampling.NewSourceFromUint64(4110)
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	var wire bytes.Buffer
	if err := pk.Serialize(&wire); err != nil {
		b.Fatal(err)
	}
	if err := kg.GenRelinKey(sk).Serialize(&wire); err != nil {
		b.Fatal(err)
	}
	const galoisKeys = 8
	for g := uint64(3); g < 3+2*galoisKeys; g += 2 {
		gk, err := kg.GenGaloisKey(sk, g)
		if err != nil {
			b.Fatal(err)
		}
		if err := gk.Serialize(&wire); err != nil {
			b.Fatal(err)
		}
	}
	blob := wire.Bytes()
	r := bytes.NewReader(blob)
	read := func() {
		r.Reset(blob)
		if _, err := ReadPublicKey(r, params); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadRelinKey(r, params); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < galoisKeys; i++ {
			if _, err := ReadGaloisKey(r, params); err != nil {
				b.Fatal(err)
			}
		}
		if r.Len() != 0 {
			b.Fatalf("%d bytes left after the key set", r.Len())
		}
	}
	read()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

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

// BenchmarkSum256 times the mean's aggregation at the served parameters
// (ParamsBatching: 109-bit q, n=4096): one Sum of 256 ciphertexts, 32 MB
// of operands read once into one output.
func BenchmarkSum256(b *testing.B) {
	params := ParamsBatching()
	src := sampling.NewSourceFromUint64(256)
	kg := NewKeyGenerator(params, src)
	_, pk := kg.GenKeyPair()
	enc := NewEncryptor(params, pk, src)
	cts := make([]*Ciphertext, 256)
	for i := range cts {
		ct, err := enc.EncryptValue(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}
	ev := NewEvaluator(params, nil)
	ev.Sum(cts) // start the worker pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Sum(cts)
	}
}

// encryptRig builds a ParamsBatching public key and an encryptor whose
// public-key NTT forms are warm.
func encryptRig(tb testing.TB) (*Parameters, *sampling.Source, *PublicKey, *Encryptor) {
	tb.Helper()
	params := ParamsBatching()
	src := sampling.NewSourceFromUint64(4096)
	kg := NewKeyGenerator(params, src)
	_, pk := kg.GenKeyPair()
	enc := NewEncryptor(params, pk, src)
	if _, err := enc.EncryptValue(7); err != nil {
		tb.Fatal(err)
	}
	return params, src, pk, enc
}

// BenchmarkEncrypt times one fresh encryption at the served parameters:
// sampling u, e1 and e2, the two masking products p0·u and p1·u on the
// public key's cached NTT forms, and the entry of e1 + Δ·m and e2.
// BenchmarkEncryptFloor is the double-CRT share of that work alone.
func BenchmarkEncrypt(b *testing.B) {
	_, _, _, enc := encryptRig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncryptValue(7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncryptFloor is the fixed double-CRT work of one encryption at
// the served parameters: one entry of a ternary u, the two products with
// the warm public-key forms and the two exits to mod q. Sampling and the
// entry of the plaintext and error terms are what BenchmarkEncrypt adds.
func BenchmarkEncryptFloor(b *testing.B) {
	params, src, pk, _ := encryptRig(b)
	ctx := params.dcrtCtx
	p0R, p1R := pk.forms.get(ctx, []*poly.Poly{pk.P0}, []*poly.Poly{pk.P1})
	u := ternaryPoly(src, params.N, params.Q)
	prod := ctx.NewPoly()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uR := ctx.ToRNS(u)
		ctx.MulNTT(prod, p0R[0], uR)
		ctx.FromRNS(prod)
		ctx.MulNTT(prod, p1R[0], uR)
		ctx.FromRNS(prod)
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
	release := func(rots []*Deferred) {
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
