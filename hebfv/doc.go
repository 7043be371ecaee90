// Package hebfv is the public facade of the BFV implementation: a
// small, stable, scheme-level API over the internal layers (key
// generation, encoding, encryption, double-CRT evaluation, the PIM
// simulator). It is the surface every consumer builds on — the
// benchmarks and examples in this repository, and the served HTTP
// evaluation plane (repro/hebfv/serve, cmd/hebfvd). Everything
// under internal/ is private and may change freely; only this package
// is a compatibility surface.
//
// # Contexts and keys
//
// A Context bundles parameters, keys, encoders and the evaluation
// engine behind functional options:
//
//	ctx, err := hebfv.New(
//		hebfv.WithSecurityLevel(109),   // the paper's presets: 27, 54, 109
//		hebfv.WithBackend("dcrt-native"),
//		hebfv.WithRotations(1, 2, 4),   // eager Galois keys for these steps
//	)
//
// Keys are context-managed: secret, public and relinearization keys
// generate at construction, and slot rotations derive their Galois keys
// on demand — callers never touch a Galois element. ExportKeys /
// WithKeySet move key material between contexts with a versioned binary
// header; exporting without the secret key yields an evaluation-only
// context (it encrypts and evaluates, but cannot decrypt), which is the
// server half of the paper's deployment model. The relinearization key
// and each Galois key are one object, a key-switching key (from s² and
// from τ_g(s) to s), with one record layout; an import whose key has a
// digit count other than the parameters' is an ErrCorruptBlob, since
// such a key would evaluate to wrong results without an error.
// Ciphertexts marshal with the same versioned header
// (Ciphertext.MarshalBinary / Context.UnmarshalCiphertext).
//
// # Streaming serialization
//
// The serialization API is streaming-first: Ciphertext.MarshalTo and
// Context.ReadCiphertext move one ciphertext record across an
// io.Writer/io.Reader in pooled fixed-size chunks — the encoder's
// working set is O(chunk), never O(blob), so a served front end pipes
// multi-100KiB ciphertexts straight between sockets without staging
// them. ReadCiphertext consumes exactly one record, so a request body
// can carry operands back to back. Context.ExportKeysTo and
// WithKeySetFrom are the same streaming pair for key sets, and the
// []byte forms (MarshalBinary, UnmarshalCiphertext, ExportKeys,
// WithKeySet) are thin wrappers over the identical code paths — one
// wire format, no double buffering. Ciphertext.MarshaledBytes and
// Context.CiphertextBytes return the exact encoded size — for deferred
// (NTT-resident) handles too, without forcing them — so servers can set
// Content-Length before streaming.
//
// # Memory management and handle lifecycle
//
// Handles are cheap; their coefficient backings are not (128 KiB per
// two-component ciphertext at n=4096). Each Context therefore owns a
// size-classed backing pool. ReadCiphertext / UnmarshalCiphertext decode
// directly into pooled backings — zero staging copies beyond the fixed
// chunk buffer — and the host backends ("dcrt-native", "schoolbook")
// draw every result from the same pool, while the cached NTT forms an
// operand builds come from the double-CRT scratch pool. Calling
// Ciphertext.Release returns all of it for the next request to reuse; at
// steady state a serving hot loop re-allocates nothing but small
// fixed-size structs.
//
// The lifecycle rules:
//
//   - Release every handle you are done with (strongly recommended — an
//     unreleased handle is garbage-collected like any value, the pool
//     just never recycles it): decoded handles and evaluation results
//     alike. Handles from Encrypt, results of the "pim" backend and
//     identity-step rotations live on the heap; releasing them is
//     harmless uniformity.
//   - A released handle is dead: every error-bearing use reports
//     ErrReleasedHandle (double Release included), Degree returns −1,
//     Equal reports false. Nothing ever panics or silently reads a
//     recycled backing: a call reading a handle pins it, and a Release
//     from another goroutine mid-call takes effect at once for new
//     callers but returns the memory only when the last reader is done.
//   - Evaluation outputs never alias their inputs, so releasing the
//     operands of a completed operation cannot corrupt its result.
//   - Context.Close drains the pool; PoolStats exposes the
//     gets/puts/hits/misses balance (InUse == 0 means every pooled
//     handle came back) and keeps working after Close for
//     post-eviction leak audits.
//   - WithPoolRetention bounds the bytes kept warm per context
//     (default 32 MiB; 0 disables retention so every Get allocates).
//
// The serve package applies these rules automatically: request handles
// and the response handle are released once the response is flushed,
// and the server's /v1/stats reports the aggregated pool counters.
//
// # Serving
//
// Package repro/hebfv/serve builds the HE-as-a-service evaluation
// plane on this facade, and the deployment split is expressed entirely
// in Context state:
//
//   - The client keeps the key-owning context: it encrypts, derives the
//     rotation keys its workload needs (WithRotations, or by running it
//     once), and onboards ExportKeysTo(w, false) — the evaluation-only
//     key set.
//   - The server restores evaluation-only contexts with WithKeySetFrom
//     and identifies them by Context.KeySetHash — the SHA-256 of the
//     evaluation-only export, identical on both sides of the wire, so
//     client and server agree on the tenant fingerprint without a
//     registration round trip.
//   - A serving cache bounds resident tenants and calls Context.Close
//     on eviction: the cached Galois keys drop immediately and every
//     later operation fails with typed ErrContextClosed (Close is
//     idempotent; evict only at zero in-flight requests).
//
// RotateRowsEach is the coalesced-rotation primitive of that plane:
// many ciphertexts, one step, one Galois key, one batch dispatch.
//
// # Slot-level operations
//
// With the default plaintext modulus (65537, batching-capable at every
// supported degree) the N plaintext slots form a 2 × (N/2) matrix and
// the API speaks in slots, not exponents: EncryptSlots packs a vector,
// RotateRows(ct, k) rotates each row left by k, RotateColumns swaps the
// rows, InnerSum replicates the total of all slots into every slot. The
// slot → Galois-element mapping is computed inside the facade from the
// transform's evaluation-point layout.
//
// Batched variants delegate to the hoisted pipelines underneath:
// RotateRowsMany shares one key-switching digit decomposition across
// all steps and — on the native backend — returns NTT-resident outputs
// whose base conversions are deferred until a consumer forces
// coefficients (Add and Sum of such outputs fuse entirely in the NTT
// domain);
// RotateRowsAndSum fuses all key-switch reductions of a
// rotate-and-aggregate into one extended-basis accumulator; MulMany and
// AddMany schedule element-wise pipelines on the shared worker pool.
//
// # Backends
//
// Evaluation strategy is selected by name (WithBackend; Backends lists
// them): "dcrt-native" (default, the RNS+NTT fast path), "schoolbook"
// (bfv.Oracle, the math/big evaluator that is the correctness oracle) and
// "pim" (the simulated UPMEM server: every kernel is a shard plan run by
// one scheduler, internal/pimsched, which alone places work on DPUs,
// retries faults and prices transfers; Context.PIMReport, PIMStats and
// PIMBreakdown read its one running total — modeled kernel time, fault
// toll, sharded breakdown). All backends are mutually bit-identical — the
// differential tests in this package prove it across the facade,
// RotateRows/InnerSum slot semantics included.
//
// Underneath, every backend implements one Engine contract (see
// backend.go): batched primitives — a single operation is a length-1
// batch — over values that are either materialized or deferred, and
// one Report method behind the accessors above. Deferral travels with
// the value, so the host failover decorator a "pim" context runs under
// forwards one method family and keeps NTT-resident fast paths once the
// work lands on the host. Engine names internal types deliberately, so
// it cannot be implemented outside the repository.
//
// # Error contract and fault tolerance
//
// The public API never lets a panic escape: every exported entry point
// recovers internal panics and converts them to errors, and every
// rejection of user-controlled input is typed so callers can branch
// with errors.Is:
//
//   - ErrCorruptBlob — a serialized blob (ciphertext or key set) failed
//     validation: truncated, bad magic/version/kind, parameters that do
//     not match the context, non-canonical coefficients, or trailing
//     bytes. Deserialization is hardened against hostile input and
//     fuzz-tested (FuzzUnmarshalCiphertext, FuzzImportKeySet).
//   - ErrNoSecretKey — a secret-key operation (Decrypt, NoiseBudget,
//     ExportKeys(true), deriving an uncached Galois key) on an
//     evaluation-only context restored from ExportKeys(false).
//   - ErrNilHandle / ErrForeignHandle — a nil handle, or one created by
//     a different Context.
//   - ErrReleasedHandle — the handle was Released (its pooled backings
//     recycled) and then used, or Released twice.
//   - ErrNoBatching — slot operations under a plaintext modulus with no
//     batching structure.
//   - ErrBackendFailed — an evaluation backend failed internally (e.g.
//     a worker panic, or a PIM fault budget exhausted); the operation
//     did not produce a result.
//
// The simulated PIM backend carries a deterministic fault model:
// WithPIMFaultInjection(seed, transient, dead, straggler) arms
// per-launch DPU fault rates, transient faults retry in bounded rounds,
// dead DPUs' shards re-dispatch to survivors, and Context.PIMStats
// reports the toll. When the PIM system degrades beyond recovery
// (pim-fault-class errors only — semantic errors propagate unchanged),
// the context fails over to the host backend once and replays the
// failed operation; Context.FailoverStats records the switch. Results
// remain bit-identical under any fault schedule — the differential
// fault tests pin this at a 10% transient rate and under total DPU
// loss.
package hebfv
