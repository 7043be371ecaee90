package hebfv

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/pim"
)

// config collects the functional options New resolves a Context from.
type config struct {
	secLevel  int    // 27, 54 or 109; 0 = default (109)
	toy       bool   // insecure N=64 demo parameters
	t         uint64 // plaintext modulus; 0 = default (65537, batching-capable)
	backend   string // backend name; "" = DefaultBackend
	rotations []int  // row steps whose Galois keys generate eagerly
	columns   bool   // eagerly generate the column-swap key too
	seed      *uint64
	pimDPUs   int
	keySet    []byte
	keySetR   io.Reader

	pimRanks       int // explicit rank×DPU topology; 0 = derive
	pimDPUsPerRank int //

	pimFaultSeed  uint64
	pimFaultRates map[string]float64 // injection site -> probability

	poolRetain *int64 // pool retention cap in bytes; nil = default
}

// Option configures a Context under construction.
type Option func(*config) error

// WithSecurityLevel selects one of the paper's parameter presets by its
// security level: 27 (N=1024), 54 (N=2048) or 109 bits (N=4096). The
// default is 109, the level with comfortable noise margin for
// multiplication.
func WithSecurityLevel(bits int) Option {
	return func(c *config) error {
		switch bits {
		case 27, 54, 109:
			c.secLevel = bits
			return nil
		}
		return fmt.Errorf("hebfv: unsupported security level %d (want 27, 54 or 109)", bits)
	}
}

// WithInsecureToyParameters selects the deliberately small N=64 instance
// (no security) so demos and tests run in microseconds. Mutually
// exclusive with WithSecurityLevel.
func WithInsecureToyParameters() Option {
	return func(c *config) error {
		c.toy = true
		return nil
	}
}

// WithPlaintextModulus overrides the plaintext modulus t. The default,
// 65537, is a prime with t ≡ 1 (mod 2N) at every supported ring degree,
// so the slot API (EncryptSlots, RotateRows, InnerSum, …) works out of
// the box; other moduli may disable batching, leaving the integer API
// available.
func WithPlaintextModulus(t uint64) Option {
	return func(c *config) error {
		if t < 2 {
			return errors.New("hebfv: plaintext modulus must be >= 2")
		}
		c.t = t
		return nil
	}
}

// WithBackend selects the evaluation backend by name (see
// Backends). The default is DefaultBackend ("dcrt-native").
func WithBackend(name string) Option {
	return func(c *config) error {
		if name == "" {
			return errors.New("hebfv: empty backend name")
		}
		c.backend = name
		return nil
	}
}

// WithRotations eagerly generates the Galois keys for the given row
// rotation steps at construction time (keys for other steps — and the
// InnerSum ladder — are derived lazily on first use, which requires the
// context to hold the secret key).
func WithRotations(ks ...int) Option {
	return func(c *config) error {
		c.rotations = append(c.rotations, ks...)
		return nil
	}
}

// WithColumnRotation eagerly generates the column-swap Galois key
// alongside WithRotations' row keys.
func WithColumnRotation() Option {
	return func(c *config) error {
		c.columns = true
		return nil
	}
}

// WithSeed makes key generation and encryption deterministic — for
// tests, reproducible benchmarks and examples. Without it the context
// draws from the system entropy source.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = &seed
		return nil
	}
}

// WithPIMDPUs overrides the simulated DPU count for the "pim" backend.
func WithPIMDPUs(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return errors.New("hebfv: DPU count must be positive")
		}
		c.pimDPUs = n
		return nil
	}
}

// WithPIMTopology pins the rank×DPU shape of the "pim" backend's
// execution plane. Without it the backend derives the largest
// whole-rank topology that fits the simulated DPU count (see
// WithPIMDPUs); with it, and without an explicit DPU count, the
// simulated system is sized to ranks×dpusPerRank. Topology matters for
// the modeled times, never the results: transfers parallelize within a
// rank and serialize on the host bus across ranks, and staging/compute
// overlap happens at rank granularity, so the sharded breakdown
// (Context.PIMBreakdown) changes shape while ciphertexts stay
// bit-identical. Other backends ignore the option.
func WithPIMTopology(ranks, dpusPerRank int) Option {
	return func(c *config) error {
		if ranks <= 0 || dpusPerRank <= 0 {
			return fmt.Errorf("hebfv: PIM topology %d×%d must be positive", ranks, dpusPerRank)
		}
		c.pimRanks, c.pimDPUsPerRank = ranks, dpusPerRank
		return nil
	}
}

// WithPIMFaultInjection arms the "pim" backend's deterministic fault
// injector: each DPU launch independently suffers a transient failure,
// permanent death, or straggler slowdown with the given probabilities
// (each in [0, 1]). Decisions are a pure function of the seed and the
// launch sequence, so a chaos run replays identically. The backend
// retries transient faults, re-dispatches dead DPUs' shards to
// survivors, and — past the retry budget — fails over to the host
// backend, all while staying bit-identical; the toll shows up in
// Context.PIMStats and Context.FailoverStats, never in results. Other
// backends ignore the option.
func WithPIMFaultInjection(seed uint64, transient, dead, straggler float64) Option {
	return func(c *config) error {
		for _, p := range []float64{transient, dead, straggler} {
			if p < 0 || p > 1 {
				return fmt.Errorf("hebfv: fault probability %v outside [0, 1]", p)
			}
		}
		c.pimFaultSeed = seed
		c.pimFaultRates = map[string]float64{}
		if transient > 0 {
			c.pimFaultRates[pim.SiteDPUTransient] = transient
		}
		if dead > 0 {
			c.pimFaultRates[pim.SiteDPUDead] = dead
		}
		if straggler > 0 {
			c.pimFaultRates[pim.SiteDPUStraggler] = straggler
		}
		return nil
	}
}

// WithPoolRetention caps how many bytes of free ciphertext backings
// the context's backing pool retains between requests (see Context.
// PoolStats and the package's "Memory management and handle lifecycle"
// section); the default is 32 MiB. A cap of 0 disables recycling
// entirely — every release drops its backings, restoring per-request
// allocation, as hebfvd -pool-mb 0 does; the acquire/release accounting
// and the leak-balance invariant stay active either way.
func WithPoolRetention(bytes int64) Option {
	return func(c *config) error {
		if bytes < 0 {
			return errors.New("hebfv: pool retention cap must be non-negative")
		}
		c.poolRetain = &bytes
		return nil
	}
}

// WithKeySet restores the context's key material from an ExportKeys
// blob instead of generating fresh keys — the server-side half of the
// deployment model: a client exports its public material once, the
// evaluation context is built from it, and (when the blob was exported
// without the secret key) the context can evaluate but never decrypt.
// The blob's parameters must match the context's.
func WithKeySet(data []byte) Option {
	return func(c *config) error {
		if len(data) == 0 {
			return errors.New("hebfv: empty key set")
		}
		c.keySet = data
		return nil
	}
}

// WithKeySetFrom is WithKeySet's streaming form: the key material is
// read from r during New — exactly one ExportKeysTo record, consumed in
// O(chunk) memory — so a server restoring many tenants' evaluation-only
// contexts never stages whole key-set blobs. The stream is not read
// past the record's end. Mutually exclusive with WithKeySet.
func WithKeySetFrom(r io.Reader) Option {
	return func(c *config) error {
		if r == nil {
			return errors.New("hebfv: nil key-set reader")
		}
		c.keySetR = r
		return nil
	}
}
