package bfv

import (
	"errors"
	"fmt"

	"repro/internal/nt"
	"repro/internal/ntt"
)

// BatchEncoder packs N values into the N plaintext "slots" via the CRT
// isomorphism Z_t[X]/(Xⁿ+1) ≅ Z_tᴺ, available when t is a prime with
// t ≡ 1 (mod 2N). Homomorphic add/mul then act slot-wise (SIMD) — the
// optimization SEAL exposes and the paper leaves as PIM future work.
type BatchEncoder struct {
	params *Parameters
	tab    *ntt.Table
}

// NewBatchEncoder returns a BatchEncoder, or an error when the plaintext
// modulus does not support batching.
func NewBatchEncoder(params *Parameters) (*BatchEncoder, error) {
	t := params.T
	if !nt.IsPrime(t) {
		return nil, fmt.Errorf("bfv: batching needs a prime plaintext modulus, got %d", t)
	}
	if (t-1)%uint64(2*params.N) != 0 {
		return nil, fmt.Errorf("bfv: batching needs t ≡ 1 (mod 2N); t=%d N=%d", t, params.N)
	}
	// The (t, N) twiddle table comes from the process-wide cache, so
	// constructing encoders per request (a server pattern) costs nothing
	// after the first.
	tab, err := ntt.GetTable(t, params.N)
	if err != nil {
		return nil, err
	}
	return &BatchEncoder{params: params, tab: tab}, nil
}

// Encode maps slot values (length ≤ N, each < t) to a plaintext.
func (be *BatchEncoder) Encode(values []uint64) (*Plaintext, error) {
	if len(values) > be.params.N {
		return nil, errors.New("bfv: too many batch values")
	}
	slots := make([]uint64, be.params.N)
	for i, v := range values {
		slots[i] = v % be.params.T
	}
	be.tab.Inverse(slots) // slot values are the NTT image of the coefficients
	return &Plaintext{Coeffs: slots}, nil
}

// Decode recovers the slot values of a plaintext.
func (be *BatchEncoder) Decode(pt *Plaintext) []uint64 {
	out := append([]uint64(nil), pt.Coeffs...)
	for i := range out {
		out[i] %= be.params.T
	}
	be.tab.Forward(out)
	return out
}
