package hebfv

import (
	"errors"
	"fmt"

	"repro/internal/bfv"
)

// Encoding and encryption.

// EncodeValue places one value (mod t) in the constant coefficient —
// the integer encoding of the paper's statistical workloads. Available
// with every plaintext modulus.
func (c *Context) EncodeValue(v uint64) *Plaintext {
	pt := newPlain(c)
	pt.pt.Coeffs[0] = v % c.params.T
	return pt
}

// EncodeSlots packs up to Slots() values (each mod t) into the
// plaintext slots; homomorphic operations then act slot-wise (SIMD).
// Slots form a 2 × RowSlots matrix: index i < RowSlots is row 0 column
// i, the rest row 1 — the layout RotateRows and RotateColumns act on.
func (c *Context) EncodeSlots(values []uint64) (_ *Plaintext, err error) {
	defer guard(&err)
	enc, err := c.requireBatching()
	if err != nil {
		return nil, err
	}
	n := c.params.N
	if len(values) > n {
		return nil, fmt.Errorf("hebfv: %d values exceed the %d slots", len(values), n)
	}
	raw := make([]uint64, n)
	for i, v := range values {
		raw[c.perm[i]] = v % c.params.T
	}
	pt, err := enc.Encode(raw)
	if err != nil {
		return nil, err
	}
	return &Plaintext{ctx: c, pt: pt}, nil
}

// DecodeSlots recovers the slot values of a plaintext.
func (c *Context) DecodeSlots(pt *Plaintext) (_ []uint64, err error) {
	defer guard(&err)
	enc, err := c.requireBatching()
	if err != nil {
		return nil, err
	}
	raw, err := c.ownPlain(pt)
	if err != nil {
		return nil, err
	}
	flat := enc.Decode(raw)
	out := make([]uint64, len(flat))
	for i := range out {
		out[i] = flat[c.perm[i]]
	}
	return out, nil
}

func newPlain(c *Context) *Plaintext {
	return &Plaintext{ctx: c, pt: newBFVPlaintext(c)}
}

// Encrypt encrypts an encoded plaintext under the context's public key.
// Encryptions are serialized on the context's randomness source.
func (c *Context) Encrypt(pt *Plaintext) (_ *Ciphertext, err error) {
	defer guard(&err)
	raw, err := c.ownPlain(pt)
	if err != nil {
		return nil, err
	}
	c.srcMu.Lock()
	ct, err := c.enc.Encrypt(raw)
	c.srcMu.Unlock()
	if err != nil {
		return nil, err
	}
	return c.wrap(ct), nil
}

// EncryptValue is Encrypt ∘ EncodeValue.
func (c *Context) EncryptValue(v uint64) (*Ciphertext, error) {
	return c.Encrypt(c.EncodeValue(v))
}

// EncryptSlots is Encrypt ∘ EncodeSlots.
func (c *Context) EncryptSlots(values []uint64) (*Ciphertext, error) {
	pt, err := c.EncodeSlots(values)
	if err != nil {
		return nil, err
	}
	return c.Encrypt(pt)
}

// Decryption — requires the secret key (CanDecrypt).

// Decrypt recovers the encoded plaintext.
func (c *Context) Decrypt(ct *Ciphertext) (_ *Plaintext, err error) {
	defer guard(&err)
	raw, err := c.own(ct)
	if err != nil {
		return nil, err
	}
	defer ct.unpin()
	if c.dec == nil {
		return nil, ErrNoSecretKey
	}
	return &Plaintext{ctx: c, pt: c.dec.Decrypt(raw)}, nil
}

// DecryptValue recovers the constant coefficient (EncryptValue's
// inverse).
func (c *Context) DecryptValue(ct *Ciphertext) (uint64, error) {
	pt, err := c.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	return pt.pt.Coeffs[0], nil
}

// DecryptSlots recovers the slot values (EncryptSlots' inverse).
func (c *Context) DecryptSlots(ct *Ciphertext) ([]uint64, error) {
	pt, err := c.Decrypt(ct)
	if err != nil {
		return nil, err
	}
	return c.DecodeSlots(pt)
}

// NoiseBudget returns the remaining noise budget of ct in bits; zero or
// negative means decryption is no longer guaranteed.
func (c *Context) NoiseBudget(ct *Ciphertext) (_ int, err error) {
	defer guard(&err)
	raw, err := c.own(ct)
	if err != nil {
		return 0, err
	}
	defer ct.unpin()
	if c.dec == nil {
		return 0, ErrNoSecretKey
	}
	return c.dec.NoiseBudget(raw), nil
}

// Homomorphic arithmetic — slot-wise (SIMD) under batching encodings.
// Handles reach the engine in whatever form they hold, so deferred
// results keep fusing and chaining on backends that defer (see
// Ciphertext) and materialize transparently everywhere else.

// Add returns a + b. Sums of deferred rotation outputs fuse in the NTT
// domain, and sums of deferred product outputs in the RNS domain, when
// exactness bounds allow.
func (c *Context) Add(a, b *Ciphertext) (_ *Ciphertext, err error) {
	defer guard(&err)
	return c.binOp(a, b, c.eng.Add)
}

// Sub returns a − b, as a + (−b) on every backend.
func (c *Context) Sub(a, b *Ciphertext) (_ *Ciphertext, err error) {
	defer guard(&err)
	vs, err := c.operands([]*Ciphertext{a, b})
	if err != nil {
		return nil, err
	}
	defer unpinAll([]*Ciphertext{a, b})
	nb, err := c.eng.Neg(vs[1])
	if err != nil {
		return nil, err
	}
	defer nb.Release()
	out, err := c.eng.Add(vs[:1], []bfv.Value{nb})
	if err != nil {
		return nil, err
	}
	return c.wrap(out[0]), nil
}

// Mul returns the relinearized product a·b. On backends with deferred
// multiplication the result stays NTT-resident — it chains into further
// Mul calls and fuses under Sum/Add without intermediate base
// conversions — and materializes transparently (bit-identically) when a
// consumer needs coefficients.
func (c *Context) Mul(a, b *Ciphertext) (_ *Ciphertext, err error) {
	defer guard(&err)
	return c.binOp(a, b, c.eng.Mul)
}

// Square returns the relinearized square of a (deferred like Mul where
// the backend supports it).
func (c *Context) Square(a *Ciphertext) (_ *Ciphertext, err error) {
	defer guard(&err)
	return c.binOp(a, a, c.eng.Mul)
}

// Neg returns −a.
func (c *Context) Neg(a *Ciphertext) (_ *Ciphertext, err error) {
	defer guard(&err)
	va, err := c.operand(a)
	if err != nil {
		return nil, err
	}
	defer a.unpin()
	out, err := c.eng.Neg(va)
	if err != nil {
		return nil, err
	}
	return c.wrap(out), nil
}

// AddPlain returns a + pt.
func (c *Context) AddPlain(a *Ciphertext, pt *Plaintext) (_ *Ciphertext, err error) {
	defer guard(&err)
	return c.plainOp(a, pt, c.eng.AddPlain)
}

// MulPlain returns a·pt (slot-wise under batching encodings).
func (c *Context) MulPlain(a *Ciphertext, pt *Plaintext) (_ *Ciphertext, err error) {
	defer guard(&err)
	return c.plainOp(a, pt, c.eng.MulPlain)
}

// Sum returns the total of the ciphertexts — the aggregation kernel of
// the paper's mean/variance workloads. When every input is a deferred
// product (a MulMany-then-Sum dot product) or every input a deferred
// rotation (RotateRowsMany-then-Sum), the sum fuses in that domain and
// the whole reduction pays one base-conversion pair; the result is
// bit-identical to adding the materialized inputs in any order.
func (c *Context) Sum(cts []*Ciphertext) (_ *Ciphertext, err error) {
	defer guard(&err)
	if len(cts) == 0 {
		return nil, errors.New("hebfv: empty sum")
	}
	vs, err := c.operands(cts)
	if err != nil {
		return nil, err
	}
	defer unpinAll(cts)
	out, err := c.eng.Sum(vs)
	if err != nil {
		return nil, err
	}
	return c.wrap(out), nil
}

// AddMany returns the element-wise sums as[i] + bs[i], scheduled on the
// backend's batch pipeline.
func (c *Context) AddMany(as, bs []*Ciphertext) (_ []*Ciphertext, err error) {
	defer guard(&err)
	return c.batchBinOp(as, bs, c.eng.Add)
}

// MulMany returns the element-wise relinearized products as[i]·bs[i],
// scheduled on the backend's batch pipeline. On backends with deferred
// multiplication the products stay NTT-resident (see Mul) — a following
// Sum fuses the whole reduction in the RNS domain.
func (c *Context) MulMany(as, bs []*Ciphertext) (_ []*Ciphertext, err error) {
	defer guard(&err)
	return c.batchBinOp(as, bs, c.eng.Mul)
}

// Helpers.

type batchOp = func(as, bs []bfv.Value) ([]bfv.Value, error)

func (c *Context) binOp(a, b *Ciphertext, op batchOp) (*Ciphertext, error) {
	out, err := c.batchBinOp([]*Ciphertext{a}, []*Ciphertext{b}, op)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func (c *Context) batchBinOp(as, bs []*Ciphertext, op batchOp) ([]*Ciphertext, error) {
	va, err := c.operands(as)
	if err != nil {
		return nil, err
	}
	defer unpinAll(as)
	vb, err := c.operands(bs)
	if err != nil {
		return nil, err
	}
	defer unpinAll(bs)
	out, err := op(va, vb)
	if err != nil {
		return nil, err
	}
	return c.wrapAll(out), nil
}

func (c *Context) plainOp(a *Ciphertext, pt *Plaintext, op func(bfv.Value, *bfv.Plaintext) (bfv.Value, error)) (*Ciphertext, error) {
	va, err := c.operand(a)
	if err != nil {
		return nil, err
	}
	defer a.unpin()
	rp, err := c.ownPlain(pt)
	if err != nil {
		return nil, err
	}
	out, err := op(va, rp)
	if err != nil {
		return nil, err
	}
	return c.wrap(out), nil
}
