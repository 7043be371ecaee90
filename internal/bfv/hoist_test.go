package bfv

import (
	"sync"
	"testing"

	"repro/internal/poly"
	"repro/internal/sampling"
)

// genGaloisKeys derives keys for the elements 3^1..3^k mod 2N (all odd).
func genGaloisKeys(t *testing.T, params *Parameters, sk *SecretKey, seed uint64, k int) []*GaloisKey {
	t.Helper()
	kg := NewKeyGenerator(params, sampling.NewSourceFromUint64(seed))
	gks := make([]*GaloisKey, k)
	g := uint64(1)
	for i := range gks {
		g = g * 3 % uint64(2*params.N)
		gk, err := kg.GenGaloisKey(sk, g)
		if err != nil {
			t.Fatal(err)
		}
		gks[i] = gk
	}
	return gks
}

// TestHoistedRotationBitIdentity is the hoisting contract: rotating a
// ciphertext through a hoisted digit decomposition yields bit-identical
// output to per-rotation ApplyGalois, for every Galois element, on fresh
// and on evaluated (NTT-resident) ciphertexts.
func TestHoistedRotationBitIdentity(t *testing.T) {
	for _, params := range []*Parameters{ParamsToy(), ParamsSec27()} {
		c := newCtx(t, params, 77, true)
		gks := genGaloisKeys(t, params, c.sk, 78, 5)

		pt := NewPlaintext(params)
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64((5*i + 2) % int(params.T))
		}
		fresh, err := c.enc.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		mulled, err := c.eval.Mul(fresh, fresh)
		if err != nil {
			t.Fatal(err)
		}
		for name, ct := range map[string]*Ciphertext{"fresh": fresh, "mulled": mulled} {
			h, err := c.eval.Hoist(ct)
			if err != nil {
				t.Fatal(err)
			}
			for _, gk := range gks {
				want, err := c.eval.ApplyGalois(ct, gk)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.eval.ApplyGaloisHoisted(h, gk)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s %s g=%d: hoisted rotation differs from ApplyGalois", params, name, gk.G)
				}
			}
			h.Release()
		}
	}
}

// TestHoistedRotationParallel rotates through one shared hoisted handle
// from many goroutines — under -race, the thread-safety proof of the
// shared digit cache.
func TestHoistedRotationParallel(t *testing.T) {
	params := ParamsSec27()
	c := newCtx(t, params, 79, false)
	gks := genGaloisKeys(t, params, c.sk, 80, 4)
	ct, err := c.enc.EncryptValue(9)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.eval.Hoist(ct)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	want := make([]*Ciphertext, len(gks))
	for i, gk := range gks {
		if want[i], err = c.eval.ApplyGalois(ct, gk); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan string, 4*len(gks))
	for rep := 0; rep < 4; rep++ {
		for i, gk := range gks {
			wg.Add(1)
			go func(i int, gk *GaloisKey) {
				defer wg.Done()
				got, err := c.eval.ApplyGaloisHoisted(h, gk)
				if err != nil {
					errc <- err.Error()
					return
				}
				if !got.Equal(want[i]) {
					errc <- "parallel hoisted rotation diverged"
				}
			}(i, gk)
		}
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

// TestHoistedStaleCacheInvalidation is the cache-invariant test: after a
// component of the ciphertext is swapped (the one mutation the
// immutability convention permits), neither the per-ciphertext NTT cache
// nor a hoisted digit cache may serve stale forms — every consumer must
// observe the new component.
func TestHoistedStaleCacheInvalidation(t *testing.T) {
	params := ParamsToy()
	c := newCtx(t, params, 81, true)
	gk := genGaloisKeys(t, params, c.sk, 82, 1)[0]

	ctA, err := c.enc.EncryptValue(3)
	if err != nil {
		t.Fatal(err)
	}
	ctB, err := c.enc.EncryptValue(11)
	if err != nil {
		t.Fatal(err)
	}

	// Warm every cache on ctA: the NTT forms (via Mul and Decrypt) and a
	// hoisted digit decomposition.
	if _, err := c.eval.Mul(ctA, ctA); err != nil {
		t.Fatal(err)
	}
	c.dec.Decrypt(ctA)
	h, err := c.eval.Hoist(ctA)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if _, err := c.eval.ApplyGaloisHoisted(h, gk); err != nil {
		t.Fatal(err)
	}

	// Swap both components: ctA now *is* ctB structurally.
	ctA.Polys[0] = ctB.Polys[0].Clone()
	ctA.Polys[1] = ctB.Polys[1].Clone()

	// A pristine ciphertext with the same polynomials is the reference.
	pristine := &Ciphertext{Polys: []*poly.Poly{ctA.Polys[0], ctA.Polys[1]}}

	if got, want := c.dec.Decrypt(ctA).Coeffs[0], c.dec.Decrypt(pristine).Coeffs[0]; got != want {
		t.Fatalf("Decrypt served stale NTT forms: got %d want %d", got, want)
	}
	gotMul, err := c.eval.Mul(ctA, ctA)
	if err != nil {
		t.Fatal(err)
	}
	wantMul, err := c.eval.Mul(pristine, pristine)
	if err != nil {
		t.Fatal(err)
	}
	if !gotMul.Equal(wantMul) {
		t.Fatal("Mul served stale NTT forms after component swap")
	}
	gotRot, err := c.eval.ApplyGaloisHoisted(h, gk)
	if err != nil {
		t.Fatal(err)
	}
	wantRot, err := c.eval.ApplyGalois(pristine, gk)
	if err != nil {
		t.Fatal(err)
	}
	if !gotRot.Equal(wantRot) {
		t.Fatal("hoisted rotation served stale digit cache after component swap")
	}
}

// TestHoistedCloneIndependence: Clone must not share caches with its
// source — mutating the clone never affects the original's results.
func TestHoistedCloneIndependence(t *testing.T) {
	params := ParamsToy()
	c := newCtx(t, params, 83, false)
	gk := genGaloisKeys(t, params, c.sk, 84, 1)[0]
	ct, err := c.enc.EncryptValue(5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.eval.ApplyGalois(ct, gk)
	if err != nil {
		t.Fatal(err)
	}
	clone := ct.Clone()
	other, err := c.enc.EncryptValue(12)
	if err != nil {
		t.Fatal(err)
	}
	clone.Polys[1] = other.Polys[1]
	got, err := c.eval.ApplyGalois(ct, gk)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("mutating a clone changed the original's rotation")
	}
	if c.dec.Decrypt(ct).Coeffs[0] != 5 {
		t.Fatal("mutating a clone changed the original's decryption")
	}
}

// TestHoistedRejectsBadInputs covers the degree and nil-key guards.
func TestHoistedRejectsBadInputs(t *testing.T) {
	params := ParamsToy()
	c := newCtx(t, params, 85, true)
	ct, _ := c.enc.EncryptValue(1)
	d2, err := c.eval.MulNoRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.eval.Hoist(d2); err == nil {
		t.Error("degree-2 ciphertext accepted by Hoist")
	}
	h, err := c.eval.Hoist(ct)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if _, err := c.eval.ApplyGaloisHoisted(h, nil); err == nil {
		t.Error("nil Galois key accepted by ApplyGaloisHoisted")
	}
}

// TestHoistedMutateThenParallel covers the rebuild path under
// concurrency: the ciphertext is mutated (sequentially), then many
// goroutines rotate through the stale handle at once — exactly one
// coherent rebuild may happen, never a torn digit set. Run under -race
// this is the snapshot locking's proof.
func TestHoistedMutateThenParallel(t *testing.T) {
	params := ParamsSec27()
	c := newCtx(t, params, 88, false)
	gks := genGaloisKeys(t, params, c.sk, 89, 4)
	ctA, err := c.enc.EncryptValue(3)
	if err != nil {
		t.Fatal(err)
	}
	ctB, err := c.enc.EncryptValue(8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.eval.Hoist(ctA)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if _, err := c.eval.ApplyGaloisHoisted(h, gks[0]); err != nil {
		t.Fatal(err)
	}

	ctA.Polys[1] = ctB.Polys[1].Clone() // invalidate the hoisted digits
	pristine := &Ciphertext{Polys: []*poly.Poly{ctA.Polys[0], ctA.Polys[1]}}
	want := make([]*Ciphertext, len(gks))
	for i, gk := range gks {
		if want[i], err = c.eval.ApplyGalois(pristine, gk); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan string, 8*len(gks))
	for rep := 0; rep < 8; rep++ {
		for i, gk := range gks {
			wg.Add(1)
			go func(i int, gk *GaloisKey) {
				defer wg.Done()
				got, err := c.eval.ApplyGaloisHoisted(h, gk)
				if err != nil {
					errc <- err.Error()
					return
				}
				if !got.Equal(want[i]) {
					errc <- "stale or torn digits served after mutation"
				}
			}(i, gk)
		}
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}
