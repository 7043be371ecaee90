package bfv

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/poly"
)

// RNS-native decryption differential tests: the word-sized phase +
// RoundModT path must reproduce the big.Int oracle bit for bit, across
// parameter sets, ciphertext degrees, and evaluated (noisy) inputs.

func assertDecryptMatch(t *testing.T, d *Decryptor, ct *Ciphertext, label string) {
	t.Helper()
	got, ok := d.decryptRNS(ct)
	if !ok {
		t.Fatalf("%s: decryptRNS declined a supported ciphertext", label)
	}
	want := d.decryptBig(ct)
	for i := range want.Coeffs {
		if got.Coeffs[i] != want.Coeffs[i] {
			t.Fatalf("%s: RNS decrypt differs from big.Int oracle at coefficient %d: %d != %d",
				label, i, got.Coeffs[i], want.Coeffs[i])
		}
	}
}

func runDecryptRNSDifferential(t *testing.T, params *Parameters, seed uint64) {
	t.Helper()
	c := newCtx(t, params, seed, true)
	gk := genGaloisKeys(t, params, c.sk, seed+1, 1)[0]

	pt := NewPlaintext(params)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64((7*i + 1) % int(params.T))
	}
	ct, err := c.enc.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	assertDecryptMatch(t, c.dec, ct, "fresh degree-1")

	rot, err := c.eval.ApplyGalois(ct, gk)
	if err != nil {
		t.Fatal(err)
	}
	assertDecryptMatch(t, c.dec, rot, "rotated")

	d2, err := c.eval.MulNoRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	assertDecryptMatch(t, c.dec, d2, "degree-2 (unrelinearized)")

	rel, err := c.eval.Relinearize(d2)
	if err != nil {
		t.Fatal(err)
	}
	assertDecryptMatch(t, c.dec, rel, "relinearized product")
}

func TestDecryptRNSSec27(t *testing.T)  { runDecryptRNSDifferential(t, ParamsSec27(), 401) }
func TestDecryptRNSSec54(t *testing.T)  { runDecryptRNSDifferential(t, ParamsSec54(), 402) }
func TestDecryptRNSSec109(t *testing.T) { runDecryptRNSDifferential(t, ParamsSec109(), 403) }
func TestDecryptRNSToy(t *testing.T)    { runDecryptRNSDifferential(t, ParamsToy(), 404) }

// TestDecryptRNSBatching covers the large plaintext modulus (t=65537):
// the widest t·n² window the paper's parameter sets produce.
func TestDecryptRNSBatching(t *testing.T) {
	runDecryptRNSDifferential(t, ParamsBatching(), 405)
}

// TestDecryptRNSDegree3Fallback: degree-3 ciphertexts are outside the
// RNS-native window and fall back to the big.Int path, still decrypting
// correctly.
func TestDecryptRNSDegree3Fallback(t *testing.T) {
	params := ParamsToy()
	c := newCtx(t, params, 406, false)
	ct, err := c.enc.EncryptValue(2)
	if err != nil {
		t.Fatal(err)
	}
	// Pad with zero components: the phase (and hence the plaintext) is
	// unchanged, but the degree exceeds the native gate.
	d3 := &Ciphertext{Polys: []*poly.Poly{
		ct.Polys[0], ct.Polys[1],
		poly.NewPoly(params.N, params.Q.W), poly.NewPoly(params.N, params.Q.W),
	}}
	if _, ok := c.dec.decryptRNS(d3); ok {
		t.Fatal("degree-3 ciphertext accepted by the RNS-native window")
	}
	if got := c.dec.Decrypt(d3).Coeffs[0]; got != 2 {
		t.Fatalf("degree-3 fallback decrypted to %d, want 2", got)
	}
}

// TestDecryptRNSParallel decrypts concurrently through one shared
// Decryptor — under -race, the thread-safety proof of the cached secret
// forms and pooled rounding scratch.
func TestDecryptRNSParallel(t *testing.T) {
	params := ParamsSec27()
	c := newCtx(t, params, 407, false)
	cts := make([]*Ciphertext, 4)
	want := make([]uint64, len(cts))
	for i := range cts {
		ct, err := c.enc.EncryptValue(uint64(5 + 3*i))
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
		want[i] = uint64(5+3*i) % params.T
	}
	var wg sync.WaitGroup
	errc := make(chan string, 8*len(cts))
	for rep := 0; rep < 8; rep++ {
		for i, ct := range cts {
			wg.Add(1)
			go func(i int, ct *Ciphertext) {
				defer wg.Done()
				if got := c.dec.Decrypt(ct).Coeffs[0]; got != want[i] {
					errc <- "parallel RNS decrypt diverged"
				}
			}(i, ct)
		}
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

// TestDecryptCachesFormsOnSecondRead: a ciphertext decrypted once keeps
// no NTT form — the decryption builds its forms in pool scratch and
// returns them — and the second decryption caches every form, which a
// third then reads.
func TestDecryptCachesFormsOnSecondRead(t *testing.T) {
	params := ParamsSec27()
	c := newCtx(t, params, 408, false)
	ct, err := c.enc.EncryptValue(6)
	if err != nil {
		t.Fatal(err)
	}
	cached := func() int {
		n := 0
		for _, f := range ct.ntt.forms {
			if f != nil {
				n++
			}
		}
		return n
	}
	for read, want := range []int{0, 2, 2} {
		if got := c.dec.Decrypt(ct).Coeffs[0]; got != 6 {
			t.Fatalf("decryption %d: got %d, want 6", read+1, got)
		}
		if got := cached(); got != want {
			t.Fatalf("after decryption %d: %d cached forms, want %d", read+1, got, want)
		}
	}
	forms := slices.Clone(ct.ntt.forms)
	c.dec.Decrypt(ct)
	if !slices.Equal(forms, ct.ntt.forms) {
		t.Fatal("a decryption rebuilt forms the ciphertext had cached")
	}
	ct.Release()
}
