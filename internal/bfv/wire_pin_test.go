package bfv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// TestWireFormatIsPinned hashes the Serialize output of every record kind
// (ciphertext, secret, public, relinearization and Galois key) drawn from
// a seeded key generator. The expected digests were measured once, before
// the key records shared a codec, and are never edited: a served tenant's
// identity is the hash of its key-set bytes, so any byte change here
// orphans every onboarded tenant.
func TestWireFormatIsPinned(t *testing.T) {
	cases := []struct {
		name   string
		params *Parameters
		want   map[string]string
	}{
		{"toy", ParamsToy(), map[string]string{
			"ciphertext": "3b0a99786bc85c615b276e8949c5bad61bc288070a984283fc7e81fe9bc659a4",
			"secret":     "b50d18bffd686853eeed5b7afdea54850d96ca499c7f622244f04705602798fa",
			"public":     "18e2b6e4f00454b63a5e7b9a54cb9cfa8d772c03943ee7d2fa1a94beec18e90d",
			"relin":      "fc9029b5225868f45001b954c6523194f3767b679f6a23e77f37e7681db840c9",
			"galois":     "02d48c455623396253f5a1cd1c8598936b6d491fb3297252eb46ef94bec0237b",
		}},
		{"sec27", ParamsSec27(), map[string]string{
			"ciphertext": "5104da717dd042b044861fdb0ec48c6949f968b66b9b337d8eb8cbd5735bfc79",
			"secret":     "ee636241fc78076d1e5f25738e174311667ca3f06921ac8879f42c3e2a320340",
			"public":     "819cc01397e2c8cdb7bae63d485a1ee3ac87802cafa3394a90bc61f214e996b4",
			"relin":      "99a3e57b9a5f228dc6f176e8ca0f4e2e20a7dd647a9af112b854b348ef1dcd82",
			"galois":     "4238bca3f65c7b26bb6d2974fccb3af8f9410d73364887328256ec6093898d2a",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := samplingSource(0x5eed)
			kg := NewKeyGenerator(tc.params, src)
			sk, pk := kg.GenKeyPair()
			rlk := kg.GenRelinKey(sk)
			gk, err := kg.GenGaloisKey(sk, 5)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := NewEncryptor(tc.params, pk, src).EncryptValue(7)
			if err != nil {
				t.Fatal(err)
			}
			records := map[string]interface{ Serialize(io.Writer) error }{
				"ciphertext": ct, "secret": sk, "public": pk, "relin": rlk, "galois": gk,
			}
			for kind, rec := range records {
				var buf bytes.Buffer
				if err := rec.Serialize(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != tc.want[kind] {
					t.Errorf("%s record: sha256 %s, want %s", kind, got, tc.want[kind])
				}
			}
		})
	}
}
