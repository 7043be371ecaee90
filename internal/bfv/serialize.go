package bfv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"strings"
	"sync"

	"repro/internal/limb32"
	"repro/internal/poly"
)

// Binary serialization. Every record opens with one fixed header — a
// 4-byte magic and little-endian u32 words — followed by its
// polynomials' limbs (all little-endian):
//
//	ciphertext: magic "BFVc" | u32 polyCount | u32 N | u32 W | limbs…
//	secret key: magic "BFVs" | u32 N | u32 W | limbs…
//
// (the public and key-switching key records: serialize_keys.go).
// Ciphertexts are what crosses the user↔server boundary in the paper's
// deployment model (§3: users encrypt, the PIM server computes).

// record is one record kind: its magic and the name errors give it.
type record struct {
	magic [4]byte
	name  string
}

var (
	ciphertextRecord = record{[4]byte{'B', 'F', 'V', 'c'}, "ciphertext"}
	secretKeyRecord  = record{[4]byte{'B', 'F', 'V', 's'}, "secret key"}
	publicKeyRecord  = record{[4]byte{'B', 'F', 'V', 'p'}, "public key"}
	relinKeyRecord   = record{[4]byte{'B', 'F', 'V', 'r'}, "relinearization key"}
	galoisKeyRecord  = record{[4]byte{'B', 'F', 'V', 'g'}, "Galois key"}
)

// maxHeaderWords is the longest header: the Galois key's u64 g (two
// words, low word first — the same bytes) and its four shape words.
const maxHeaderWords = 6

// writeHeader writes rec's magic and words — the one encoder of every
// record header.
func (rec record) writeHeader(w io.Writer, words ...uint32) error {
	var b [4 + 4*maxHeaderWords]byte
	copy(b[:], rec.magic[:])
	for i, v := range words {
		binary.LittleEndian.PutUint32(b[4+4*i:], v)
	}
	_, err := w.Write(b[:4+4*len(words)])
	return err
}

// readHeader reads rec's magic, refusing any other before reading on,
// then fills words — the one decoder of every record header.
func (rec record) readHeader(r io.Reader, words []uint32) error {
	var b [4 + 4*maxHeaderWords]byte
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return err
	}
	if [4]byte(b[:4]) != rec.magic {
		return fmt.Errorf("bfv: bad %s magic", strings.ReplaceAll(rec.name, " ", "-"))
	}
	if _, err := io.ReadFull(r, b[4:4+4*len(words)]); err != nil {
		return err
	}
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(b[4+4*i:])
	}
	return nil
}

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

// BackingAllocator supplies and reclaims []uint32 coefficient backings:
// the zero-copy decode path (ReadCiphertextBacked) and an Evaluator's
// outputs and temporaries (Evaluator.Alloc) draw from it, and
// Ciphertext.Release returns to it. Get returns a backing of exactly the
// requested word count with undefined contents (every user overwrites
// each word). internal/polypool.Pool satisfies it.
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
	p := newPolyFrom(alloc, n, mod.W)
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
	p := ct.Polys[0]
	if err := ciphertextRecord.writeHeader(w, uint32(len(ct.Polys)), uint32(p.N), uint32(p.W)); err != nil {
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
// ordinary allocation); the ciphertext's Release returns them.
// On any decode error every backing already acquired is returned to
// alloc, so a rejected blob leaves the allocator balanced.
func ReadCiphertextBacked(r io.Reader, params *Parameters, alloc BackingAllocator) (*Ciphertext, error) {
	var h [3]uint32 // polyCount | N | W
	if err := ciphertextRecord.readHeader(r, h[:]); err != nil {
		return nil, err
	}
	count, n, w := int(h[0]), int(h[1]), int(h[2])
	if count == 0 || count > maxSerializedPolys {
		return nil, fmt.Errorf("bfv: implausible polynomial count %d", count)
	}
	if n != params.N || w != params.Q.W {
		return nil, fmt.Errorf("bfv: ciphertext shape %d/%d does not match parameters %d/%d",
			n, w, params.N, params.Q.W)
	}
	ct := &Ciphertext{Polys: make([]*poly.Poly, count), alloc: alloc}
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
	return writeKeyPolys(w, secretKeyRecord, sk.S)
}

// ReadSecretKey deserializes a secret key.
func ReadSecretKey(r io.Reader, params *Parameters) (*SecretKey, error) {
	p, err := readKeyPolys(r, params, secretKeyRecord, 1)
	if err != nil {
		return nil, err
	}
	return &SecretKey{S: p[0]}, nil
}

// writeKeyPolys writes a key record whose header is N | W and whose body
// is ps: the secret and the public key.
func writeKeyPolys(w io.Writer, rec record, ps ...*poly.Poly) error {
	if err := rec.writeHeader(w, uint32(ps[0].N), uint32(ps[0].W)); err != nil {
		return err
	}
	for _, p := range ps {
		if err := writePoly(w, p); err != nil {
			return err
		}
	}
	return nil
}

// readKeyPolys reads a key record whose header is N | W and whose body
// is count polynomials: the secret and the public key.
func readKeyPolys(r io.Reader, params *Parameters, rec record, count int) ([]*poly.Poly, error) {
	var h [2]uint32 // N | W
	if err := rec.readHeader(r, h[:]); err != nil {
		return nil, err
	}
	if int(h[0]) != params.N || int(h[1]) != params.Q.W {
		return nil, fmt.Errorf("bfv: %s shape mismatch", rec.name)
	}
	ps := make([]*poly.Poly, count)
	for i := range ps {
		p, err := readPolyCanonical(r, params.N, params.Q, nil)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}
