package bfv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"repro/internal/limb32"
	"repro/internal/poly"
)

// Binary serialization. Layout (all little-endian):
//
//	ciphertext: magic "BFVc" | u32 polyCount | u32 N | u32 W | limbs…
//	secret key: magic "BFVs" | u32 N | u32 W | limbs…
//
// Ciphertexts are what crosses the user↔server boundary in the paper's
// deployment model (§3: users encrypt, the PIM server computes).

var (
	magicCiphertext = [4]byte{'B', 'F', 'V', 'c'}
	magicSecretKey  = [4]byte{'B', 'F', 'V', 's'}
)

const maxSerializedPolys = 16 // sanity bound when decoding

// Polynomial limbs cross io.Writer/io.Reader boundaries through a fixed
// pooled chunk buffer instead of binary.Write/binary.Read, which would
// stage the whole limb vector in one transient allocation. A served
// front end streams multi-hundred-KiB ciphertexts per request, so the
// encode/decode working set must stay O(chunk), not O(blob). The wire
// layout is unchanged: the little-endian u32 limb sequence.

const polyChunkWords = 8 << 10 // 32 KiB chunks

var polyChunkPool = sync.Pool{New: func() any {
	b := make([]byte, polyChunkWords*4)
	return &b
}}

func writePoly(w io.Writer, p *poly.Poly) error {
	bp := polyChunkPool.Get().(*[]byte)
	defer polyChunkPool.Put(bp)
	buf := *bp
	c := p.C
	for len(c) > 0 {
		k := min(len(c), polyChunkWords)
		// Two limbs, one 64-bit little-endian word, per store: the same
		// bytes as the u32 sequence.
		b, src := buf[:k*4], c[:k]
		for len(src) >= 2 && len(b) >= 8 {
			binary.LittleEndian.PutUint64(b, uint64(src[0])|uint64(src[1])<<32)
			b, src = b[8:], src[2:]
		}
		if len(src) == 1 {
			binary.LittleEndian.PutUint32(b, src[0])
		}
		if _, err := w.Write(buf[:k*4]); err != nil {
			return err
		}
		c = c[k:]
	}
	return nil
}

// BackingAllocator supplies and reclaims []uint32 coefficient backings
// for the zero-copy decode path. Get returns a backing of exactly the
// requested word count with undefined contents (decoding overwrites
// every word); Put takes one back when a partially decoded ciphertext
// is abandoned mid-error. internal/polypool.Pool satisfies it.
type BackingAllocator interface {
	Get(words int) []uint32
	Put(b []uint32)
}

// readPolyCanonical reads one polynomial of n coefficients at mod's
// width, drawing its backing from alloc (nil: a fresh allocation), and
// rejects non-canonical coefficients (value ≥ q). Every decoder funnels
// through this check: downstream arithmetic assumes fully reduced
// residues, and a hostile blob must not smuggle unreduced ones past the
// boundary. The check rides along the chunked copy (decodeWords) as one
// branch-free borrow per coefficient; only a polynomial that fails it is
// scanned again, for the first offending index. On any error the backing
// (if pooled) has already been returned to alloc.
func readPolyCanonical(r io.Reader, n int, mod *poly.Modulus, alloc BackingAllocator) (*poly.Poly, error) {
	var p *poly.Poly
	if alloc != nil {
		p = poly.NewPolyBacked(n, mod.W, alloc.Get(n*mod.W))
	} else {
		p = poly.NewPoly(n, mod.W)
	}
	fail := func(err error) (*poly.Poly, error) {
		if alloc != nil {
			alloc.Put(p.C)
		}
		return nil, err
	}
	bp := polyChunkPool.Get().(*[]byte)
	defer polyChunkPool.Put(bp)
	buf := *bp
	q0, q1 := mod.Words()
	below := uint64(1) // 1 while every coefficient read is below q
	for c := p.C; len(c) > 0; {
		k := min(len(c), polyChunkWords)
		if _, err := io.ReadFull(r, buf[:k*4]); err != nil {
			return fail(err)
		}
		below &= decodeWords(c[:k], buf[:k*4], mod.W, q0, q1)
		c = c[k:]
	}
	if below == 0 {
		for i := 0; i < n; i++ {
			if limb32.Cmp(p.Coeff(i), mod.Q, nil) >= 0 {
				return fail(fmt.Errorf("bfv: non-canonical coefficient %d (not reduced mod q)", i))
			}
		}
	}
	return p, nil
}

// decodeWords copies the little-endian u32 sequence b into the limbs c,
// assembling each w-limb coefficient x as (lo, hi) words — w is 1, 2 or
// 4, the widths of every modulus NewParameters accepts — and returns 1
// when every x is below q = q0 + 2⁶⁴·q1, else 0: the borrow of x − q,
// ANDed across the chunk without a branch.
func decodeWords(c []uint32, b []byte, w int, q0, q1 uint64) uint64 {
	below := uint64(1)
	switch w {
	case 1:
		for len(c) >= 1 && len(b) >= 4 {
			x := binary.LittleEndian.Uint32(b)
			c[0] = x
			_, br := bits.Sub64(uint64(x), q0, 0)
			below &= br
			c, b = c[1:], b[4:]
		}
	case 2:
		for len(c) >= 2 && len(b) >= 8 {
			x := binary.LittleEndian.Uint64(b)
			c[0], c[1] = uint32(x), uint32(x>>32)
			_, br := bits.Sub64(x, q0, 0)
			below &= br
			c, b = c[2:], b[8:]
		}
	default:
		for len(c) >= 4 && len(b) >= 16 {
			lo, hi := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
			c[0], c[1], c[2], c[3] = uint32(lo), uint32(lo>>32), uint32(hi), uint32(hi>>32)
			_, br := bits.Sub64(lo, q0, 0)
			_, br = bits.Sub64(hi, q1, br)
			below &= br
			c, b = c[4:], b[16:]
		}
	}
	return below
}

// Serialize writes the ciphertext in binary form.
func (ct *Ciphertext) Serialize(w io.Writer) error {
	if len(ct.Polys) == 0 {
		return errors.New("bfv: cannot serialize empty ciphertext")
	}
	var hdr [16]byte // magic | u32 polyCount | u32 N | u32 W
	copy(hdr[:], magicCiphertext[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(ct.Polys)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(ct.Polys[0].N))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(ct.Polys[0].W))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, p := range ct.Polys {
		if err := writePoly(w, p); err != nil {
			return err
		}
	}
	return nil
}

// ReadCiphertextBacked deserializes a ciphertext, validates it against
// params and draws the coefficient backings from alloc (pass nil for
// ordinary allocation).
// On any decode error every backing already acquired is returned to
// alloc, so a rejected blob leaves the allocator balanced.
func ReadCiphertextBacked(r io.Reader, params *Parameters, alloc BackingAllocator) (*Ciphertext, error) {
	var hdr [16]byte // magic | u32 polyCount | u32 N | u32 W
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, err
	}
	if [4]byte(hdr[:4]) != magicCiphertext {
		return nil, errors.New("bfv: bad ciphertext magic")
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint32(hdr[4:]))
	n := int(binary.LittleEndian.Uint32(hdr[8:]))
	w := int(binary.LittleEndian.Uint32(hdr[12:]))
	if count == 0 || count > maxSerializedPolys {
		return nil, fmt.Errorf("bfv: implausible polynomial count %d", count)
	}
	if n != params.N || w != params.Q.W {
		return nil, fmt.Errorf("bfv: ciphertext shape %d/%d does not match parameters %d/%d",
			n, w, params.N, params.Q.W)
	}
	ct := &Ciphertext{Polys: make([]*poly.Poly, count)}
	for i := range ct.Polys {
		p, err := readPolyCanonical(r, n, params.Q, alloc)
		if err != nil {
			if alloc != nil {
				for _, done := range ct.Polys[:i] {
					alloc.Put(done.C)
				}
			}
			return nil, err
		}
		ct.Polys[i] = p
	}
	return ct, nil
}

// Serialize writes the secret key in binary form.
func (sk *SecretKey) Serialize(w io.Writer) error {
	var hdr [12]byte // magic | u32 N | u32 W
	copy(hdr[:], magicSecretKey[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(sk.S.N))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(sk.S.W))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return writePoly(w, sk.S)
}

// ReadSecretKey deserializes a secret key.
func ReadSecretKey(r io.Reader, params *Parameters) (*SecretKey, error) {
	var hdr [12]byte // magic | u32 N | u32 W
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, err
	}
	if [4]byte(hdr[:4]) != magicSecretKey {
		return nil, errors.New("bfv: bad secret-key magic")
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, err
	}
	n, w := binary.LittleEndian.Uint32(hdr[4:]), binary.LittleEndian.Uint32(hdr[8:])
	if int(n) != params.N || int(w) != params.Q.W {
		return nil, errors.New("bfv: secret key shape mismatch")
	}
	p, err := readPolyCanonical(r, params.N, params.Q, nil)
	if err != nil {
		return nil, err
	}
	return &SecretKey{S: p}, nil
}
