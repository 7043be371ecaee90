// Package repro reproduces "Evaluating Homomorphic Operations on a
// Real-World Processing-In-Memory System" (Gupta, Kabra, Gómez-Luna,
// Kanellopoulos, Mutlu; IISWC 2023, arXiv:2309.06545) as a Go library:
// a from-scratch BFV somewhat-homomorphic encryption implementation, a
// cycle-level simulator of the first-generation UPMEM PIM system, the
// paper's CPU / CPU-SEAL / GPU baselines as calibrated analytic models,
// and a benchmark harness that regenerates every figure of the paper's
// evaluation. CHANGES.md is the history; this file is the map and the
// rules.
//
// # Architecture
//
// From the outside in:
//
//   - cmd/hebfvd and repro/hebfv/serve: the served evaluation plane.
//     Tenants are evaluation-only key sets in an LRU context cache;
//     concurrent single-op requests coalesce into the facade's batch
//     calls; ciphertexts stream in O(chunk) memory through a pooled
//     decode path. cmd/hebfvd's own test byte-checks the binary's
//     wiring; the benchmark's served workloads measure it.
//   - repro/hebfv: the public facade and the only compatibility
//     surface. A Context owns parameters, keys, encoders and one Engine;
//     callers speak in slots and rotation steps, never Galois elements.
//   - hebfv.Engine: one contract of batched primitives (Add, Mul,
//     Rotate, Sum, RotateAndSum; Neg/AddPlain/MulPlain) over bfv.Value
//     plus one Report(). Three backends implement it: "dcrt-native"
//     (the default host path), "schoolbook" (bfv.Oracle) and "pim" (the
//     simulated UPMEM server, wrapped by a host failover decorator in a
//     Context); the last two share one adapter that evaluates a
//     ciphertext at a time. A single operation is a length-1 batch.
//   - internal/bfv: the scheme. A bfv.Value is a ciphertext in
//     materialized (*Ciphertext) or deferred (*Deferred: a product's
//     residue-domain or a rotation's NTT-domain accumulators) form; the
//     double-CRT evaluator, the hoisted/batched front end, the
//     schoolbook oracle (bfv.Oracle), encryption, RNS-native decryption
//     and serialization live here. RelinKey and
//     GaloisKey are one key-switching key (s² → s and τ_g(s) → s) with
//     one generator, one wire record and one cache of NTT forms; a key
//     whose digit count is not the parameters' RelinDigits is refused
//     at import.
//   - internal/dcrt, internal/ntt, internal/rns, internal/modring: the
//     double-CRT arithmetic — an extended RNS basis wide enough that
//     exact integer tensor and key-switch accumulators never wrap,
//     RNS-native scale-and-round and base conversion, lazy-reduction
//     NTT kernels with AVX2/AVX-512 tiers chosen at start-up
//     (internal/cpufeat; HEPIM_VECTOR overrides), one bounded worker
//     pool shared by limb- and batch-level work.
//   - internal/hepim, internal/pimsched, internal/pim: BFV on the
//     simulated PIM machine, on one execution plane. Every kernel
//     driver (internal/pim/kernels) is a shard plan; pimsched alone
//     places it on an explicit rank×DPU topology, models how far
//     transfer overlaps compute at rank granularity, retries and
//     re-dispatches under the deterministic fault model
//     (internal/faultinject), and prices cycles, transfers and
//     energy into one report shape — the server, the figures and the
//     performance model all run it.
//   - internal/perfmodel, internal/bench, cmd/hepim-bench: the paper's
//     analytic platform models and the emitters of its figures.
//   - benchmark/ (BENCHMARK.json), with the Go benchmarks cmd/benchdiff
//     gates in CI: the one place this repo's own performance is
//     measured.
//
// Everything under internal/ is private by policy as well as by Go
// visibility; new consumers go through the facade, adding what it lacks
// rather than reaching around it. Every exported function and method
// there has a caller in non-test code, and every exported struct field a
// writer, and surface_test.go fails on one that does not: a helper only
// tests use lives in those tests, and a setting nothing sets is a
// constant.
//
// # Invariants
//
// Bit-identity. Every backend, every batching or hoisting shape, every
// deferred form, every SIMD tier and every fault schedule produces
// ciphertexts bit-identical to the schoolbook evaluator bfv.Oracle,
// whose math/big Kronecker products share no multiply with the
// double-CRT bfv.Evaluator (one code path per operation) or the PIM
// kernels.
// The PIM plane counts its work on the simulated device, through the
// pim.TaskletCtx tallies its kernels charge; the host keeps no meter.
// Scheduling, routing, coalescing, sharding and failover move work; they
// never change arithmetic. The host multiplies on one pipeline:
// bfv.NewParameters refuses a modulus the word-sized double-CRT base
// conversion cannot serve (dcrt.NewContext), so the double-CRT evaluator
// has no big.Int middle path. The big.Int code that stays is the
// oracle's (Kronecker products, scaleRound, DecomposeForRelin; the PIM
// server's host rescale runs the last two) and decryptBig, the rounding
// oracle and the fallback outside decryptRNS's window.
//
// No aliasing. An engine output never shares backing memory with an
// input, and every facade operation — identity rotations included —
// returns a fresh handle, so releasing the operands or the result of a
// completed operation cannot corrupt the other. Only handles decoded by
// Context.ReadCiphertext draw on the context's backing pool; Release
// returns them, a released handle fails with ErrReleasedHandle, and
// PoolStats.InUse == 0 is the leak-balance check.
//
// Lazy bounds. Values above q appear by design — digit NTT forms
// (< 4p), lazy inverse outputs and deferred accumulators (< 2p) — and
// every kernel states the bound it accepts and emits. A vector kernel
// must match its scalar counterpart's contract exactly and is pinned to
// it bit for bit in internal/ntt/vector_test.go on adversarial lanes;
// the 128-bit fused accumulators are bounded by ntt.Acc128Capacity, and
// the 128-bit coefficient accumulators of a lazily reduced Sum by
// poly's sumCapacity (⌊(2¹²⁸−1)/q⌋ residues, then the sum reduces on its
// own). Both host additions that skip the limb32 routine — the 109-bit
// Add and that Sum — are pinned to it on adversarial operands in
// internal/poly's tests, and so is the PIM product kernel, which at
// every width computes each pair's accumulators as one exact
// convolution and charges limb32.Mul + accumAdd's tally from counts
// (pim/kernels convolve and productTally; only at 4 limbs does the
// tally still form each product, for Karatsuba's carries):
// TestProductRunsMatchLimb32 holds the tally to limb32 product by
// product on every zero-limb pattern and on prefix products either side
// of each schoolbook row's ripple boundary, and
// TestPolyMulMatchesPerProductKernel holds the whole kernel to the
// per-product program it simulates.
// Deferred sums carry a magnitude bound and refuse to fuse (the caller
// falls back to coefficients) rather than leave the basis exactness
// window.
//
// Floors. A kernel that moves data is compared with the memory traffic it
// cannot avoid, measured on the same 2-core Xeon. Entry into double-CRT
// form (dcrt ToRNS/ToRNSCentered, one word kernel for every width) is
// held against the K forward transforms it feeds: ≈ 186 µs traced for a
// 109-bit, n = 4096 polynomial against 4 × 30 µs (it was ≈ 430 µs). Wire
// decode (bfv readPolyCanonical: a chunked copy that assembles 64-bit
// words and folds the canonicity check into one branch-free borrow per
// coefficient) is held against an io.ReadFull copy of the same bytes:
// ≈ 21–31 µs for a 131 KB ciphertext record against ≈ 7 µs for the copy
// (it was ≈ 140 µs).
//
// # Error contract
//
// No panic crosses the hebfv API: exported entry points recover
// internal panics (a worker-pool task panic arrives as a typed
// *dcrt.PanicError) into ErrBackendFailed, and every rejection of
// caller-controlled input is typed for errors.Is — ErrCorruptBlob
// (hardened, fuzz-tested deserialization), ErrNoSecretKey,
// ErrNilHandle / ErrForeignHandle / ErrReleasedHandle, ErrNoBatching,
// ErrContextClosed. Fault-class failures of the PIM plane (a fault past
// the retry budget, no live DPUs, a converted panic) fail over to the
// host once and replay; semantic errors never do. The serve package
// maps the same taxonomy to HTTP statuses (serve.HTTPStatus). See the
// hebfv package documentation for the details.
package repro
