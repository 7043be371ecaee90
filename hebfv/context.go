package hebfv

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bfv"
	"repro/internal/pim"
	"repro/internal/polypool"
	"repro/internal/sampling"
)

// Context is the scheme-level entry point: one value that owns the
// parameter set, the key material, the encoders, and the selected
// evaluation backend. Every operation — encryption, slot-level
// evaluation, decryption, serialization — goes through it, so consumers
// never wire params, keys, encoder and evaluator together by hand and
// never see raw Galois elements.
//
// A Context is safe for concurrent use. Keys are context-managed: the
// secret, public and relinearization keys are generated at construction
// (or restored via WithKeySet), and Galois keys are derived on demand
// from the slot rotations requested — eagerly for WithRotations, lazily
// otherwise. A context restored from a key set exported without the
// secret key is evaluation-only: it encrypts and evaluates but cannot
// decrypt or derive new Galois keys.
type Context struct {
	params  *bfv.Parameters
	backend string
	eng     Engine

	kg  *bfv.KeyGenerator // nil on imported key sets (no generator state)
	sk  *bfv.SecretKey    // nil on evaluation-only contexts
	pk  *bfv.PublicKey
	rlk *bfv.RelinKey
	enc *bfv.Encryptor
	dec *bfv.Decryptor // nil on evaluation-only contexts

	encoder  *bfv.BatchEncoder // nil when t does not support batching
	batchErr error             // why batching is unavailable
	perm     []int             // logical slot -> NTT slot (see slots.go)

	// srcMu serializes the consumers of the context's randomness source
	// (encryption and lazy Galois-key derivation): sampling.Source is
	// not goroutine-safe. Lock order: mu before srcMu.
	srcMu sync.Mutex

	mu  sync.Mutex
	gks map[uint64]*bfv.GaloisKey // Galois element -> key

	// pool recycles ciphertext coefficient backings: ReadCiphertext and
	// the host engines' results draw from it, Ciphertext.Release returns
	// to it, Close drains it. See WithPoolRetention.
	pool *polypool.Pool

	closed atomic.Bool // set by Close; operations reject with ErrContextClosed
}

// defaultPoolRetainBytes sizes the backing pool when WithPoolRetention
// is not given: 32 MiB retains the backings of roughly 256 ciphertexts
// at n=4096/W=4 (64 KiB per polynomial, 128 KiB per two-component
// ciphertext).
const defaultPoolRetainBytes = 32 << 20

// New builds a Context from functional options: parameter preset
// (WithSecurityLevel / WithInsecureToyParameters, plaintext modulus via
// WithPlaintextModulus), backend selection (WithBackend), key material
// (generated, or restored with WithKeySet), and eager rotation keys
// (WithRotations).
func New(opts ...Option) (*Context, error) {
	var cfg config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.toy && cfg.secLevel != 0 {
		return nil, errors.New("hebfv: WithInsecureToyParameters and WithSecurityLevel are mutually exclusive")
	}
	params, err := buildParams(&cfg)
	if err != nil {
		return nil, err
	}

	var src *sampling.Source
	if cfg.seed != nil {
		src = sampling.NewSourceFromUint64(*cfg.seed)
	} else if src, err = sampling.NewSystemSource(); err != nil {
		return nil, err
	}

	poolRetain := int64(defaultPoolRetainBytes)
	if cfg.poolRetain != nil {
		poolRetain = *cfg.poolRetain
	}
	c := &Context{
		params: params,
		gks:    map[uint64]*bfv.GaloisKey{},
		pool:   polypool.New(poolRetain),
	}
	if cfg.keySet != nil && cfg.keySetR != nil {
		return nil, errors.New("hebfv: WithKeySet and WithKeySetFrom are mutually exclusive")
	}
	if cfg.keySet != nil || cfg.keySetR != nil {
		if cfg.keySet != nil {
			err = c.importKeys(cfg.keySet)
		} else {
			err = c.importKeysFrom(cfg.keySetR)
		}
		if err != nil {
			return nil, err
		}
		if c.sk != nil {
			// A restored secret key supports lazy Galois-key derivation;
			// fresh randomness comes from the context's own source.
			c.kg = bfv.NewKeyGenerator(params, src)
		}
	} else {
		c.kg = bfv.NewKeyGenerator(params, src)
		c.sk, c.pk = c.kg.GenKeyPair()
		c.rlk = c.kg.GenRelinKey(c.sk)
	}
	c.enc = bfv.NewEncryptor(params, c.pk, src)
	if c.sk != nil {
		c.dec = bfv.NewDecryptor(params, c.sk)
	}

	if enc, err := bfv.NewBatchEncoder(params); err != nil {
		c.batchErr = err
	} else {
		c.encoder = enc
		c.perm = slotPerm(params.N)
	}

	c.backend = cfg.backend
	if c.backend == "" {
		c.backend = DefaultBackend
	}
	if c.eng, err = NewEngine(c.backend, Config{
		Params:         params,
		Relin:          c.rlk,
		PIMDPUs:        cfg.pimDPUs,
		PIMRanks:       cfg.pimRanks,
		PIMDPUsPerRank: cfg.pimDPUsPerRank,
		PIMFaultSeed:   cfg.pimFaultSeed,
		PIMFaultRates:  cfg.pimFaultRates,
		pool:           c.pool,
	}); err != nil {
		return nil, err
	}
	if c.backend == "pim" {
		// Graceful degradation: a pim engine failing past its fault
		// retry budget fails over to the (bit-identical) host default.
		relin, pool := c.rlk, c.pool
		c.eng = newFailoverEngine(c.eng, c.backend, DefaultBackend, func() (Engine, error) {
			return NewEngine(DefaultBackend, Config{Params: params, Relin: relin, pool: pool})
		})
	}

	// Eager Galois keys: deduplicated, in sorted step order so two
	// same-seed contexts derive identical key streams.
	if len(cfg.rotations) > 0 || cfg.columns {
		if c.encoder == nil {
			return nil, fmt.Errorf("hebfv: rotations need a batching plaintext modulus: %v", c.batchErr)
		}
		steps := append([]int(nil), cfg.rotations...)
		sort.Ints(steps)
		seen := map[uint64]bool{}
		for _, k := range steps {
			g := c.rowStepElement(k)
			if g == 1 || seen[g] {
				continue
			}
			seen[g] = true
			if _, err := c.galoisKey(g); err != nil {
				return nil, err
			}
		}
		if cfg.columns {
			if _, err := c.galoisKey(c.columnElement()); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// buildParams resolves the option set to a bfv parameter set, reusing
// the preset instance (and its memoized double-CRT context) when the
// plaintext modulus is not overridden.
func buildParams(cfg *config) (*bfv.Parameters, error) {
	var base *bfv.Parameters
	switch {
	case cfg.toy:
		base = bfv.ParamsToy()
	case cfg.secLevel == 27:
		base = bfv.ParamsSec27()
	case cfg.secLevel == 54:
		base = bfv.ParamsSec54()
	default:
		base = bfv.ParamsSec109()
	}
	t := cfg.t
	if t == 0 {
		t = 65537
	}
	if t == base.T {
		return base, nil
	}
	return bfv.NewParameters(base.N, base.Q.QBig, t, base.RelinBaseBits)
}

// Backend returns the name of the evaluation backend this context runs.
func (c *Context) Backend() string { return c.backend }

// N returns the ring degree.
func (c *Context) N() int { return c.params.N }

// PlaintextModulus returns t.
func (c *Context) PlaintextModulus() uint64 { return c.params.T }

// Slots returns the number of plaintext slots (N, arranged as a 2 ×
// RowSlots matrix), or 0 when the plaintext modulus does not support
// batching.
func (c *Context) Slots() int {
	if c.encoder == nil {
		return 0
	}
	return c.params.N
}

// RowSlots returns the length of one slot row (N/2), or 0 without
// batching.
func (c *Context) RowSlots() int { return c.Slots() / 2 }

// CiphertextBytes returns the exact encoded size of a fresh ciphertext:
// the number of bytes MarshalTo writes for a two-component handle,
// versioned header included. Deferred (NTT-resident) rotation and
// multiplication outputs materialize to the same two-component form, so
// this size — and the per-handle Ciphertext.MarshaledBytes — is exact
// for both handle kinds; servers use it for Content-Length and
// streaming size hints.
func (c *Context) CiphertextBytes() int { return c.ciphertextWireBytes(2) }

// CanDecrypt reports whether this context holds the secret key.
func (c *Context) CanDecrypt() bool { return c.dec != nil }

// Close releases the context deterministically: the cached Galois keys
// — the dominant per-tenant memory in a serving cache, a full digit
// decomposition pair per rotation step — are dropped immediately, and
// every subsequent operation fails with a typed ErrContextClosed. Close
// is idempotent. It must not race in-flight operations: a serving cache
// evicts a context only once its in-flight count reaches zero.
// Engine-held scratch returns to the shared pools once the context
// becomes unreachable.
func (c *Context) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	c.gks = map[uint64]*bfv.GaloisKey{}
	c.mu.Unlock()
	c.pool.Drain()
	return nil
}

// PoolStats is a snapshot of the context's backing-pool counters: how
// many backings were handed out (Gets) and returned (Puts), how the
// Gets split into recycles (Hits) and fresh allocations (Misses), how
// many returns were dropped at the retention cap (Dropped), the
// backings currently held by live handles (InUse = Gets − Puts, the
// leak-balance invariant), and the bytes sitting on the free lists
// (RetainedBytes — the pool's steady-state footprint).
type PoolStats = polypool.Stats

// PoolStats returns a snapshot of the backing pool's counters. It works
// on closed contexts too (the counters survive Close; only the
// retained backings are dropped), so a serving cache can audit evicted
// tenants for leaked handles.
func (c *Context) PoolStats() PoolStats { return c.pool.Stats() }

// requireOpen rejects operations on a closed context. It is checked at
// the entry points every operation funnels through: handle validation
// (own / ownPlain), the slot codec (requireBatching), deserialization
// and key export.
func (c *Context) requireOpen() error {
	if c.closed.Load() {
		return ErrContextClosed
	}
	return nil
}

// String summarizes the context.
func (c *Context) String() string {
	return fmt.Sprintf("hebfv.Context{%v, backend=%s}", c.params, c.backend)
}

// PIMReport returns the accumulated kernel-launch count and modeled
// kernel seconds of a modeled-hardware backend; ok is false when the
// selected backend does not model hardware (everything but "pim").
func (c *Context) PIMReport() (launches int, modeledSeconds float64, ok bool) {
	rep := c.eng.Report().PIM
	if rep == nil {
		return 0, 0, false
	}
	return rep.Launches, rep.Breakdown.KernelSeconds, true
}

// PIMStats holds the accumulated fault-model counters of the "pim"
// backend: faults injected, retries and shard re-dispatches the
// fault-tolerant dispatch performed, and DPUs lost permanently.
type PIMStats = pim.FaultStats

// PIMStats returns the fault and retry counters of a modeled-hardware
// backend; ok is false when the selected backend has no fault model
// (everything but "pim"). All-zero counters with ok true mean no faults
// were injected — the normal case without WithPIMFaultInjection.
func (c *Context) PIMStats() (stats PIMStats, ok bool) {
	rep := c.eng.Report().PIM
	if rep == nil {
		return PIMStats{}, false
	}
	return rep.Faults, true
}

// PIMBreakdown is the aggregated sharded execution breakdown of the
// PIM plane (see Context.PIMBreakdown): where the modeled time
// went — kernels, host→DPU staging, DPU→host gathering — across the
// rank×DPU topology, with both the pipelined makespan and the
// no-overlap serial time so overlap's benefit is a measured ratio.
type PIMBreakdown struct {
	Ranks       int  // topology: ranks scheduled over
	DPUsPerRank int  // topology: DPUs per rank
	Overlap     bool // staging/compute pipelining enabled

	Launches int // rank-granularity kernel launches issued
	Shards   int // placeable work units executed

	KernelCycles   int64   // summed per-launch critical-path cycles
	KernelSeconds  float64 // modeled kernel time incl. launch overhead
	CopyInSeconds  float64 // modeled host→DPU staging time
	CopyOutSeconds float64 // modeled DPU→host gathering time
	BytesIn        int64   // host→DPU bytes transferred
	BytesOut       int64   // DPU→host bytes transferred

	MakespanSeconds float64 // pipelined end-to-end modeled time
	SerialSeconds   float64 // no-overlap end-to-end modeled time

	EnergyKernelJoules   float64 // DPU dynamic + DMA + static energy
	EnergyTransferJoules float64 // host↔DPU interface energy

	Retried   int // shard re-launches after transient faults
	Resharded int // shards re-placed off dead DPUs onto survivors
}

// PIMBreakdown returns the accumulated sharded cycle/transfer/energy
// breakdown of the "pim" backend's execution plane; ok is false
// for host-only backends. All-zero fields with ok true mean no
// operation has reached the PIM plane yet.
func (c *Context) PIMBreakdown() (bd PIMBreakdown, ok bool) {
	plane := c.eng.Report().PIM
	if plane == nil {
		return PIMBreakdown{}, false
	}
	rep := plane.Breakdown
	return PIMBreakdown{
		Ranks:                rep.Topology.Ranks,
		DPUsPerRank:          rep.Topology.DPUsPerRank,
		Overlap:              rep.Overlap,
		Launches:             rep.Launches,
		Shards:               rep.Shards,
		KernelCycles:         rep.KernelCycles,
		KernelSeconds:        rep.KernelSeconds,
		CopyInSeconds:        rep.CopyInSeconds,
		CopyOutSeconds:       rep.CopyOutSeconds,
		BytesIn:              rep.BytesIn,
		BytesOut:             rep.BytesOut,
		MakespanSeconds:      rep.MakespanSeconds,
		SerialSeconds:        rep.SerialSeconds,
		EnergyKernelJoules:   rep.EnergyKernelJoules,
		EnergyTransferJoules: rep.EnergyTransferJoules,
		Retried:              rep.Retried,
		Resharded:            rep.Resharded,
	}, true
}

// FailoverStats reports the backend-failover state; ok is false when
// the context's backend has no failover path (everything but "pim").
func (c *Context) FailoverStats() (stats FailoverStats, ok bool) {
	if st := c.eng.Report().Failover; st != nil {
		return *st, true
	}
	return FailoverStats{}, false
}

// galoisKey returns the key for Galois element g, deriving and caching
// it when the context holds the secret key.
func (c *Context) galoisKey(g uint64) (*bfv.GaloisKey, error) {
	if err := c.requireOpen(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gk, ok := c.gks[g]; ok {
		return gk, nil
	}
	if c.sk == nil || c.kg == nil {
		return nil, fmt.Errorf("%w: no Galois key for element %d and no secret key to derive one (export it from the key-owning context)", ErrNoSecretKey, g)
	}
	c.srcMu.Lock()
	gk, err := c.kg.GenGaloisKey(c.sk, g)
	c.srcMu.Unlock()
	if err != nil {
		return nil, err
	}
	c.gks[g] = gk
	return gk, nil
}

// galoisKeys resolves a key per element, preserving order.
func (c *Context) galoisKeys(gs []uint64) ([]*bfv.GaloisKey, error) {
	out := make([]*bfv.GaloisKey, len(gs))
	for i, g := range gs {
		gk, err := c.galoisKey(g)
		if err != nil {
			return nil, err
		}
		out[i] = gk
	}
	return out, nil
}

// requireBatching returns the batch encoder or a descriptive error.
func (c *Context) requireBatching() (*bfv.BatchEncoder, error) {
	if err := c.requireOpen(); err != nil {
		return nil, err
	}
	if c.encoder == nil {
		return nil, fmt.Errorf("%w: the slot API needs t prime with t ≡ 1 mod 2N: %v", ErrNoBatching, c.batchErr)
	}
	return c.encoder, nil
}
