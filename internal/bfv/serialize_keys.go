package bfv

import (
	"fmt"
	"io"

	"repro/internal/poly"
)

// Public-key and key-switching-key serialization: what a client ships to
// the PIM server once, so later uploads are ciphertexts only.
//
//	public key: magic "BFVp" | u32 N | u32 W | p0 limbs | p1 limbs
//	relin key:  magic "BFVr" | u32 digits | u32 baseBits | u32 N | u32 W |
//	            digits × (k0 limbs | k1 limbs)
//	galois key: magic "BFVg" | u64 g | u32 digits | u32 baseBits | u32 N |
//	            u32 W | digits × (k0 limbs | k1 limbs)
//
// Both key-switching records are written by switchKey.write and read by
// switchKey.read. digits must equal the parameters' RelinDigits: a short
// key would switch part of the ciphertext and decrypt wrong silently.

// Serialize writes the public key in binary form.
func (pk *PublicKey) Serialize(w io.Writer) error {
	return writeKeyPolys(w, publicKeyRecord, pk.P0, pk.P1)
}

// ReadPublicKey deserializes a public key and validates it against params.
func ReadPublicKey(r io.Reader, params *Parameters) (*PublicKey, error) {
	p, err := readKeyPolys(r, params, publicKeyRecord, 2)
	if err != nil {
		return nil, err
	}
	return &PublicKey{P0: p[0], P1: p[1]}, nil
}

// Serialize writes the relinearization key in binary form.
func (rk *RelinKey) Serialize(w io.Writer) error {
	return rk.write(w, relinKeyRecord)
}

// ReadRelinKey deserializes a relinearization key and validates it
// against params.
func ReadRelinKey(r io.Reader, params *Parameters) (*RelinKey, error) {
	rk := &RelinKey{}
	if _, err := rk.read(r, params, relinKeyRecord); err != nil {
		return nil, err
	}
	return rk, nil
}

// Serialize writes the Galois key in binary form — the rotation-key
// upload of the deployment model: a client that wants server-side slot
// rotations ships one Galois key per rotation step.
func (gk *GaloisKey) Serialize(w io.Writer) error {
	return gk.write(w, galoisKeyRecord, uint32(gk.G), uint32(gk.G>>32))
}

// ReadGaloisKey deserializes a Galois key and validates it against
// params.
func ReadGaloisKey(r io.Reader, params *Parameters) (*GaloisKey, error) {
	gk := &GaloisKey{}
	g, err := gk.read(r, params, galoisKeyRecord)
	if err != nil {
		return nil, err
	}
	gk.G = g % uint64(2*params.N)
	return gk, nil
}

// write emits k as one rec record: rec's magic, the prefix words, the
// shape words digits | baseBits | N | W, then each digit's k0 and k1.
func (k *switchKey) write(w io.Writer, rec record, prefix ...uint32) error {
	if len(k.K0) == 0 || len(k.K0) != len(k.K1) {
		return fmt.Errorf("bfv: malformed %s", rec.name)
	}
	var h [maxHeaderWords]uint32
	i := copy(h[:], prefix)
	h[i], h[i+1], h[i+2], h[i+3] = uint32(len(k.K0)), uint32(k.BaseBits), uint32(k.K0[0].N), uint32(k.K0[0].W)
	if err := rec.writeHeader(w, h[:i+4]...); err != nil {
		return err
	}
	for i := range k.K0 {
		if err := writePoly(w, k.K0[i]); err != nil {
			return err
		}
		if err := writePoly(w, k.K1[i]); err != nil {
			return err
		}
	}
	return nil
}

// read fills k from one rec record and returns its Galois element (0 for
// a relinearization key). It refuses, in this order: another magic, an
// even g, a shape other than params' and a digit count other than
// params.RelinDigits().
func (k *switchKey) read(r io.Reader, params *Parameters, rec record) (g uint64, err error) {
	var h [maxHeaderWords]uint32
	shape := h[:4]
	if rec == galoisKeyRecord {
		if err := rec.readHeader(r, h[:6]); err != nil {
			return 0, err
		}
		if g = uint64(h[0]) | uint64(h[1])<<32; g%2 == 0 {
			return 0, fmt.Errorf("bfv: Galois element %d must be odd", g)
		}
		shape = h[2:6]
	} else if err := rec.readHeader(r, shape); err != nil {
		return 0, err
	}
	digits, baseBits, n, w := int(shape[0]), uint(shape[1]), int(shape[2]), int(shape[3])
	if n != params.N || w != params.Q.W || baseBits != params.RelinBaseBits {
		return 0, fmt.Errorf("bfv: %s shape mismatch", rec.name)
	}
	if digits != params.RelinDigits() {
		return 0, fmt.Errorf("bfv: %s has %d digits, the parameters use %d", rec.name, digits, params.RelinDigits())
	}
	k.BaseBits = baseBits
	k.K0 = make([]*poly.Poly, digits)
	k.K1 = make([]*poly.Poly, digits)
	for i := range k.K0 {
		if k.K0[i], err = readPolyCanonical(r, n, params.Q, nil); err != nil {
			return 0, err
		}
		if k.K1[i], err = readPolyCanonical(r, n, params.Q, nil); err != nil {
			return 0, err
		}
	}
	return g, nil
}
