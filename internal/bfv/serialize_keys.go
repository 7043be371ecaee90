package bfv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/poly"
)

// Public-key, relinearization-key, and Galois-key serialization: what a
// client ships to the PIM server once, so later uploads are ciphertexts
// only.
//
//	public key: magic "BFVp" | u32 N | u32 W | p0 limbs | p1 limbs
//	relin key:  magic "BFVr" | u32 digits | u32 baseBits | u32 N | u32 W |
//	            digits × (k0 limbs | k1 limbs)
//	galois key: magic "BFVg" | u64 g | u32 digits | u32 baseBits | u32 N |
//	            u32 W | digits × (k0 limbs | k1 limbs)

var (
	magicPublicKey = [4]byte{'B', 'F', 'V', 'p'}
	magicRelinKey  = [4]byte{'B', 'F', 'V', 'r'}
	magicGaloisKey = [4]byte{'B', 'F', 'V', 'g'}
)

// Serialize writes the public key in binary form.
func (pk *PublicKey) Serialize(w io.Writer) error {
	if _, err := w.Write(magicPublicKey[:]); err != nil {
		return err
	}
	hdr := []uint32{uint32(pk.P0.N), uint32(pk.P0.W)}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := writePoly(w, pk.P0); err != nil {
		return err
	}
	return writePoly(w, pk.P1)
}

// ReadPublicKey deserializes a public key and validates it against params.
func ReadPublicKey(r io.Reader, params *Parameters) (*PublicKey, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != magicPublicKey {
		return nil, errors.New("bfv: bad public-key magic")
	}
	hdr := make([]uint32, 2)
	if err := binary.Read(r, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	if int(hdr[0]) != params.N || int(hdr[1]) != params.Q.W {
		return nil, errors.New("bfv: public key shape mismatch")
	}
	p0, err := readPolyCanonical(r, params.N, params.Q, nil)
	if err != nil {
		return nil, err
	}
	p1, err := readPolyCanonical(r, params.N, params.Q, nil)
	if err != nil {
		return nil, err
	}
	return &PublicKey{P0: p0, P1: p1}, nil
}

// Serialize writes the relinearization key in binary form.
func (rk *RelinKey) Serialize(w io.Writer) error {
	if len(rk.K0) == 0 || len(rk.K0) != len(rk.K1) {
		return errors.New("bfv: malformed relinearization key")
	}
	if _, err := w.Write(magicRelinKey[:]); err != nil {
		return err
	}
	hdr := []uint32{
		uint32(len(rk.K0)), uint32(rk.BaseBits),
		uint32(rk.K0[0].N), uint32(rk.K0[0].W),
	}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for i := range rk.K0 {
		if err := writePoly(w, rk.K0[i]); err != nil {
			return err
		}
		if err := writePoly(w, rk.K1[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadRelinKey deserializes a relinearization key and validates it
// against params.
func ReadRelinKey(r io.Reader, params *Parameters) (*RelinKey, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != magicRelinKey {
		return nil, errors.New("bfv: bad relinearization-key magic")
	}
	hdr := make([]uint32, 4)
	if err := binary.Read(r, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	digits, baseBits, n, w := int(hdr[0]), uint(hdr[1]), int(hdr[2]), int(hdr[3])
	if digits == 0 || digits > 64 {
		return nil, fmt.Errorf("bfv: implausible digit count %d", digits)
	}
	if n != params.N || w != params.Q.W || baseBits != params.RelinBaseBits {
		return nil, errors.New("bfv: relinearization key shape mismatch")
	}
	rk := &RelinKey{
		BaseBits: baseBits,
		K0:       make([]*poly.Poly, digits),
		K1:       make([]*poly.Poly, digits),
	}
	for i := 0; i < digits; i++ {
		k0, err := readPolyCanonical(r, n, params.Q, nil)
		if err != nil {
			return nil, err
		}
		k1, err := readPolyCanonical(r, n, params.Q, nil)
		if err != nil {
			return nil, err
		}
		rk.K0[i], rk.K1[i] = k0, k1
	}
	return rk, nil
}

// Serialize writes the Galois key in binary form — the rotation-key
// upload of the deployment model: a client that wants server-side slot
// rotations ships one Galois key per rotation step.
func (gk *GaloisKey) Serialize(w io.Writer) error {
	if len(gk.K0) == 0 || len(gk.K0) != len(gk.K1) {
		return errors.New("bfv: malformed Galois key")
	}
	if _, err := w.Write(magicGaloisKey[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, gk.G); err != nil {
		return err
	}
	hdr := []uint32{
		uint32(len(gk.K0)), uint32(gk.BaseBits),
		uint32(gk.K0[0].N), uint32(gk.K0[0].W),
	}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for i := range gk.K0 {
		if err := writePoly(w, gk.K0[i]); err != nil {
			return err
		}
		if err := writePoly(w, gk.K1[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadGaloisKey deserializes a Galois key and validates it against
// params.
func ReadGaloisKey(r io.Reader, params *Parameters) (*GaloisKey, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != magicGaloisKey {
		return nil, errors.New("bfv: bad Galois-key magic")
	}
	var g uint64
	if err := binary.Read(r, binary.LittleEndian, &g); err != nil {
		return nil, err
	}
	if g%2 == 0 {
		return nil, fmt.Errorf("bfv: Galois element %d must be odd", g)
	}
	hdr := make([]uint32, 4)
	if err := binary.Read(r, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	digits, baseBits, n, w := int(hdr[0]), uint(hdr[1]), int(hdr[2]), int(hdr[3])
	if digits == 0 || digits > 64 {
		return nil, fmt.Errorf("bfv: implausible digit count %d", digits)
	}
	if n != params.N || w != params.Q.W || baseBits != params.RelinBaseBits {
		return nil, errors.New("bfv: Galois key shape mismatch")
	}
	gk := &GaloisKey{
		G:        g % uint64(2*params.N),
		BaseBits: baseBits,
		K0:       make([]*poly.Poly, digits),
		K1:       make([]*poly.Poly, digits),
	}
	for i := 0; i < digits; i++ {
		k0, err := readPolyCanonical(r, n, params.Q, nil)
		if err != nil {
			return nil, err
		}
		k1, err := readPolyCanonical(r, n, params.Q, nil)
		if err != nil {
			return nil, err
		}
		gk.K0[i], gk.K1[i] = k0, k1
	}
	return gk, nil
}
