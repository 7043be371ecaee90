package hebfv

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"slices"

	"repro/internal/bfv"
)

// Versioned serialization for facade types. Every blob starts with one
// header:
//
//	magic "HEBF" | u8 version | u8 kind | u32 N | u32 W | u64 T |
//	u32 relinBaseBits
//
// followed by a kind-specific payload that reuses the internal binary
// formats (internal/bfv serialize.go / serialize_keys.go) verbatim — so
// facade blobs are the internal formats plus a self-describing,
// versioned parameter guard, and the round trip is testable against the
// internal layer directly.
//
// The primary entry points are streaming: Ciphertext.MarshalTo /
// Context.ReadCiphertext and Context.ExportKeysTo / WithKeySetFrom move
// records across io.Writer/io.Reader boundaries in O(chunk) memory, so
// a served front end never stages a multi-MB ciphertext as one buffer.
// The []byte forms (MarshalBinary, UnmarshalCiphertext, ExportKeys,
// WithKeySet) are thin wrappers over the same code paths — one format,
// no double buffering underneath.
//
// Kinds:
//
//	ciphertext (1): one internal ciphertext record
//	key set    (2): u8 flags (bit0: secret key present) | [secret key] |
//	                public key | relin key | u32 count | count ×
//	                (internal Galois-key record)

const serialVersion = 1

var serialMagic = [4]byte{'H', 'E', 'B', 'F'}

const (
	kindCiphertext = 1
	kindKeySet     = 2
)

// serialHeaderBytes is the encoded size of the header: the magic, then
// u8 version | u8 kind | u32 N | u32 W | u64 T | u32 relinBaseBits.
const serialHeaderBytes = 4 + 1 + 1 + 4 + 4 + 8 + 4

// internalCiphertextHeaderBytes is the fixed prefix of the internal
// ciphertext record: magic "BFVc" | u32 polyCount | u32 N | u32 W.
const internalCiphertextHeaderBytes = 4 + 4 + 4 + 4

// header returns the context's header for a record of the given kind:
// the one encoding writeHeader sends and readHeader compares against.
func (c *Context) header(kind uint8) [serialHeaderBytes]byte {
	var b [serialHeaderBytes]byte
	copy(b[:], serialMagic[:])
	b[4], b[5] = serialVersion, kind
	binary.LittleEndian.PutUint32(b[6:], uint32(c.params.N))
	binary.LittleEndian.PutUint32(b[10:], uint32(c.params.Q.W))
	binary.LittleEndian.PutUint64(b[14:], c.params.T)
	binary.LittleEndian.PutUint32(b[22:], uint32(c.params.RelinBaseBits))
	return b
}

func (c *Context) writeHeader(w io.Writer, kind uint8) error {
	b := c.header(kind)
	_, err := w.Write(b[:])
	return err
}

func (c *Context) readHeader(r io.Reader, wantKind uint8) error {
	var b [serialHeaderBytes]byte
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return fmt.Errorf("%w: truncated header: %v", ErrCorruptBlob, err)
	}
	if [4]byte(b[:4]) != serialMagic {
		return fmt.Errorf("%w: bad magic (not a hebfv blob)", ErrCorruptBlob)
	}
	if _, err := io.ReadFull(r, b[4:]); err != nil {
		return fmt.Errorf("%w: truncated header: %v", ErrCorruptBlob, err)
	}
	if b[4] != serialVersion {
		return fmt.Errorf("%w: unsupported format version %d (have %d)", ErrCorruptBlob, b[4], serialVersion)
	}
	if b[5] != wantKind {
		return fmt.Errorf("%w: blob kind %d, want %d", ErrCorruptBlob, b[5], wantKind)
	}
	if b != c.header(wantKind) {
		return fmt.Errorf("%w: blob parameters (N=%d W=%d t=%d base=%d) do not match the context's %v",
			ErrCorruptBlob, binary.LittleEndian.Uint32(b[6:]), binary.LittleEndian.Uint32(b[10:]),
			binary.LittleEndian.Uint64(b[14:]), binary.LittleEndian.Uint32(b[22:]), c.params)
	}
	return nil
}

// ciphertextWireBytes is the exact encoded size of a ciphertext with the
// given component count under this context's parameters.
func (c *Context) ciphertextWireBytes(components int) int {
	return serialHeaderBytes + internalCiphertextHeaderBytes +
		components*c.params.N*c.params.Q.W*4
}

// MarshalTo streams the ciphertext — versioned facade header plus the
// internal record — to w in fixed-size chunks: the encoder's working
// set is O(chunk) regardless of the ciphertext size, so serving paths
// can pipe multi-MB ciphertexts straight into a socket. A deferred
// (NTT-resident) handle is forced first; the bytes written are exactly
// MarshaledBytes.
func (ct *Ciphertext) MarshalTo(w io.Writer) (err error) {
	defer guard(&err)
	raw := ct.pinForced()
	if raw == nil {
		return fmt.Errorf("%w: marshal after release", ErrReleasedHandle)
	}
	defer ct.unpin()
	if err := ct.ctx.writeHeader(w, kindCiphertext); err != nil {
		return err
	}
	return raw.Serialize(w)
}

// MarshaledBytes returns the exact encoded size of this handle —
// MarshalTo writes exactly this many bytes. Deferred (NTT-resident)
// rotation and multiplication outputs are sized without forcing them:
// both materialize to the relinearized two-component form, so the size
// hint is exact for either handle kind. Use it for Content-Length
// headers and streaming buffers.
func (ct *Ciphertext) MarshaledBytes() int {
	return ct.ctx.ciphertextWireBytes(ct.components())
}

// MarshalBinary serializes the ciphertext as one buffer. It is a thin
// wrapper over MarshalTo, pre-sized by MarshaledBytes.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(ct.MarshaledBytes())
	if err := ct.MarshalTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadCiphertext streams one ciphertext record from r into a handle
// bound to this context, validating the parameter guard. It consumes
// exactly the record's bytes, so records can be read back to back off
// one stream (a request body carrying two operands, say). Decoding is
// hardened: any structural violation is a typed ErrCorruptBlob.
//
// The coefficient backings are drawn from the context's backing pool
// and deserialized in place — no staging beyond the serializer's fixed
// chunk buffer — so the returned handle is pooled: call Release when
// done with it to recycle the backings (the serve package does this
// automatically). A handle that is never released stays valid
// indefinitely and is reclaimed by the garbage collector like any
// other; releasing is an optimization contract, not a correctness one.
// A rejected blob returns every acquired backing before the error
// surfaces, keeping the pool's leak balance intact.
func (c *Context) ReadCiphertext(r io.Reader) (_ *Ciphertext, err error) {
	defer guardBlob(&err)
	if err := c.requireOpen(); err != nil {
		return nil, err
	}
	if err := c.readHeader(r, kindCiphertext); err != nil {
		return nil, err
	}
	ct, err := bfv.ReadCiphertextBacked(r, c.params, c.pool)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptBlob, err)
	}
	return c.wrap(ct), nil
}

// UnmarshalCiphertext deserializes a ciphertext blob. It is a thin
// wrapper over ReadCiphertext that additionally rejects trailing bytes
// — a blob is exactly one record.
func (c *Context) UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	r := bytes.NewReader(data)
	ct, err := c.ReadCiphertext(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		n := r.Len()
		_ = ct.Release() // return the pooled backings before rejecting
		return nil, fmt.Errorf("%w: %d trailing bytes after ciphertext", ErrCorruptBlob, n)
	}
	return ct, nil
}

const keySetHasSecret = 1

// ExportKeysTo streams the context's key material — the public and
// relinearization keys, every Galois key cached so far, and (when
// includeSecret is set) the secret key — as one versioned record a new
// context restores with WithKeySet / WithKeySetFrom. Exporting without
// the secret yields an evaluation-only key set: the server half of the
// deployment model.
//
// Galois keys are exported in element order; derive the keys a
// restored evaluation-only context will need (WithRotations /
// WithColumnRotation, or by running the workload once) before
// exporting. The encoding is deterministic for a fixed key state, which
// is what makes KeySetHash a stable fingerprint.
func (c *Context) ExportKeysTo(w io.Writer, includeSecret bool) (err error) {
	defer guard(&err)
	if err := c.requireOpen(); err != nil {
		return err
	}
	if includeSecret && c.sk == nil {
		return fmt.Errorf("%w: nothing to export", ErrNoSecretKey)
	}
	c.mu.Lock()
	var gks []*bfv.GaloisKey
	for _, g := range slices.Sorted(maps.Keys(c.gks)) {
		gks = append(gks, c.gks[g])
	}
	c.mu.Unlock()

	if err := c.writeHeader(w, kindKeySet); err != nil {
		return err
	}
	flags := []byte{0}
	if includeSecret {
		flags[0] |= keySetHasSecret
	}
	if _, err := w.Write(flags); err != nil {
		return err
	}
	if includeSecret {
		if err := c.sk.Serialize(w); err != nil {
			return err
		}
	}
	if err := c.pk.Serialize(w); err != nil {
		return err
	}
	if err := c.rlk.Serialize(w); err != nil {
		return err
	}
	var count [4]byte
	binary.LittleEndian.PutUint32(count[:], uint32(len(gks)))
	if _, err := w.Write(count[:]); err != nil {
		return err
	}
	for _, gk := range gks {
		if err := gk.Serialize(w); err != nil {
			return err
		}
	}
	return nil
}

// ExportKeys serializes the key material as one buffer — a thin wrapper
// over ExportKeysTo.
func (c *Context) ExportKeys(includeSecret bool) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.ExportKeysTo(&buf, includeSecret); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// KeySetHash returns the context's stable identity: the SHA-256 of its
// evaluation-only key-set encoding (ExportKeysTo with includeSecret
// false). Two contexts holding the same public material — a client and
// the evaluation-only server context restored from its export — hash
// identically, so the hash is the tenant key a serving cache looks
// contexts up by. The fingerprint covers exactly the Galois keys cached
// at call time: derive the workload's rotation keys before
// fingerprinting, and fingerprint the blob you export, not a context
// that has since derived more keys. A closed context returns the zero
// hash.
func (c *Context) KeySetHash() [32]byte {
	h := sha256.New()
	if err := c.ExportKeysTo(h, false); err != nil {
		return [32]byte{}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// maxKeySetGaloisKeys bounds the Galois-key count when decoding.
const maxKeySetGaloisKeys = 1 << 16

// importKeys restores key material from an ExportKeys blob (New with
// WithKeySet), rejecting trailing bytes.
func (c *Context) importKeys(data []byte) error {
	r := bytes.NewReader(data)
	if err := c.importKeysFrom(r); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after key set", ErrCorruptBlob, r.Len())
	}
	return nil
}

// importKeysFrom streams key material from an ExportKeysTo record (New
// with WithKeySetFrom). It consumes exactly the record's bytes.
func (c *Context) importKeysFrom(r io.Reader) (err error) {
	defer guardBlob(&err)
	if err := c.readHeader(r, kindKeySet); err != nil {
		return err
	}
	var flags [1]byte
	if _, err := io.ReadFull(r, flags[:]); err != nil {
		return fmt.Errorf("%w: truncated key set: %v", ErrCorruptBlob, err)
	}
	if flags[0]&keySetHasSecret != 0 {
		sk, err := bfv.ReadSecretKey(r, c.params)
		if err != nil {
			return fmt.Errorf("%w: key set secret key: %v", ErrCorruptBlob, err)
		}
		c.sk = sk
	}
	pk, err := bfv.ReadPublicKey(r, c.params)
	if err != nil {
		return fmt.Errorf("%w: key set public key: %v", ErrCorruptBlob, err)
	}
	c.pk = pk
	rlk, err := bfv.ReadRelinKey(r, c.params)
	if err != nil {
		return fmt.Errorf("%w: key set relin key: %v", ErrCorruptBlob, err)
	}
	c.rlk = rlk
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("%w: truncated key set: %v", ErrCorruptBlob, err)
	}
	count := binary.LittleEndian.Uint32(b[:])
	if count > maxKeySetGaloisKeys {
		return fmt.Errorf("%w: implausible Galois-key count %d", ErrCorruptBlob, count)
	}
	for i := uint32(0); i < count; i++ {
		gk, err := bfv.ReadGaloisKey(r, c.params)
		if err != nil {
			return fmt.Errorf("%w: key set Galois key %d: %v", ErrCorruptBlob, i, err)
		}
		c.gks[gk.G] = gk
	}
	return nil
}
