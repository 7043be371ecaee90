package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/hebfv"
	"repro/internal/bfv"
	"repro/internal/cpufeat"
	"repro/internal/nt"
	"repro/internal/ntt"
	"repro/internal/sampling"
)

// DCRT perf tracking: measures the repo's own host-side EvalMul across
// backends and chain depths and emits BENCH_dcrt.json, so the
// performance trajectory of the evaluation layer is recorded from the PR
// that introduced it onward.
//
// v2 of the schema added a depth axis and split the double-CRT backend
// into its two rescale paths; v3 added the batched-rotation and
// decryption axes. v4 routes every evaluator through hebfv.NewEngine —
// backends are named by their hebfv names ("schoolbook", "dcrt-native";
// the label "dcrt-rns" of v2/v3 is "dcrt-native" now) and selected with
// hepim-bench's -backend flag — and adds the op "rotate"
// backend "galois-hoisted-ntt": RotateMany with NTT-resident outputs,
// the per-output base conversions deferred.
//
// v5 adds two axes for the fused lazy-reduction kernels: op "kernel"
// rows time the raw transform and convolution primitives at the 60-bit
// basis prime (backends "ntt-forward", "ntt-forward-lazy",
// "ntt-inverse", "ntt-inverse-lazy", "convolve"), and op "" backend
// "dcrt-native-deferred" rows time the depth-k Mul chain through the
// NTT-resident ProductNTT pipeline (every level consumes the previous
// deferred handle; only the final result materializes), with
// speedup_vs_serial relating each deferred row to its materialized
// dcrt-native pair.
//
// v6 adds the "dispatch" section: the host's detected SIMD features,
// the live vector mode (HEPIM_VECTOR), and a per-kernel table of the
// dispatch decision with measured scalar vs vector ns/op — so a
// regression in either tier, or a host silently falling back to
// scalar, is visible in the tracked JSON rather than only in wall
// times.
//
// v7 drops the rows that only existed to be compared against: the
// "dcrt-legacy" backend (the big.Int rescale round trip, now reachable
// only for moduli outside the RNS-native window), its speedup_vs_legacy
// field, and the "decrypt-bigint" row. Their history is in the v1–v6
// revisions of BENCH_dcrt.json and in CHANGES.md.

// DCRTPoint is one measured backend × ring-degree × depth combination.
// NsPerOp is the time of one full depth-long chain of relinearized
// multiplications (depth 1 ≡ one EvalMul) for evalmul rows, of all k
// rotations for rotate/rotate-sum rows, and of one decryption for
// decrypt rows.
type DCRTPoint struct {
	N           int     `json:"n"`
	QBits       int     `json:"q_bits"`
	Backend     string  `json:"backend"`      // evalmul: hebfv backend name or "dcrt-native-deferred"; rotate: "galois-serial"|"galois-hoisted"|"galois-hoisted-ntt"; decrypt: "decrypt-rns"; kernel: primitive name
	Op          string  `json:"op,omitempty"` // "" (evalmul) | "rotate" | "rotate-sum" | "decrypt" | "kernel"
	Depth       int     `json:"depth,omitempty"`
	Rotations   int     `json:"rotations,omitempty"` // rotate rows: Galois-element count k
	Iters       int     `json:"iters"`
	NsPerOp     int64   `json:"ns_per_op"`
	SpeedupX    float64 `json:"speedup_vs_schoolbook,omitempty"` // dcrt rows, depth 1
	SpeedupSerX float64 `json:"speedup_vs_serial,omitempty"`     // hoisted/deferred rows vs their serial/materialized pair
}

// KernelDispatchRow is one kernel's live dispatch decision plus its
// measured cost on the scalar oracle and on the dispatched vector path
// (equal when the kernel runs scalar in the current mode).
type KernelDispatchRow struct {
	Kernel   string  `json:"kernel"`
	Path     string  `json:"path"` // "scalar" | "avx2" | "avx512"
	Note     string  `json:"note,omitempty"`
	ScalarNs int64   `json:"scalar_ns_per_op"`
	VectorNs int64   `json:"vector_ns_per_op"`
	SpeedupX float64 `json:"speedup_x"`
}

// DispatchInfo is the v6 kernel-dispatch section: what the host can
// run, what the process chose, and what each choice costs.
type DispatchInfo struct {
	CPU     string              `json:"cpu"`  // detected features, e.g. "avx2,avx512"
	Mode    string              `json:"mode"` // live dispatch mode
	EnvNote string              `json:"env_note,omitempty"`
	N       int                 `json:"n"` // ring degree of the kernel sweep
	Kernels []KernelDispatchRow `json:"kernels"`
}

// DCRTReport is the BENCH_dcrt.json schema.
type DCRTReport struct {
	Schema      string        `json:"schema"`
	GeneratedAt string        `json:"generated_at"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	Op          string        `json:"op"`
	Dispatch    *DispatchInfo `json:"dispatch,omitempty"`
	Points      []DCRTPoint   `json:"points"`
}

// evalMulBackends is the tracked backend set of the evalmul axis when
// no -backend restriction is given.
var evalMulBackends = []string{"schoolbook", "dcrt-native"}

// measureEvalMul times one depth-long chain of relinearized homomorphic
// multiplications on the named backend, every level materialized (the
// deferred chain is measureMulChainDeferred's row). Setup (keygen,
// encryption, cache warming) is excluded. The schoolbook backend runs a
// single iteration — it is seconds per op by design.
func measureEvalMul(n, depth int, backend string) (DCRTPoint, error) {
	params := bfv.ParamsSec54AtDegree(n)
	src := sampling.NewSourceFromUint64(uint64(n))
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	_ = sk
	enc := bfv.NewEncryptor(params, pk, src)
	ct0, err := enc.EncryptValue(11)
	if err != nil {
		return DCRTPoint{}, err
	}
	ct1, err := enc.EncryptValue(13)
	if err != nil {
		return DCRTPoint{}, err
	}
	eng, err := hebfv.NewEngine(backend, hebfv.Config{Params: params, Relin: rlk})
	if err != nil {
		return DCRTPoint{}, err
	}
	chain := func() error {
		ct := ct0
		for d := 0; d < depth; d++ {
			next, err := eng.Mul([]bfv.Value{ct}, []bfv.Value{ct1})
			if err != nil {
				return err
			}
			ct = next[0].Materialize()
		}
		return nil
	}
	// The schoolbook backend runs a single timed iteration — seconds per
	// op by design.
	iters, ns, err := timeOp(chain, backend == "schoolbook")
	if err != nil {
		return DCRTPoint{}, err
	}
	return DCRTPoint{
		N:       n,
		QBits:   params.Q.Bits(),
		Backend: backend,
		Depth:   depth,
		Iters:   iters,
		NsPerOp: ns,
	}, nil
}

// measureMulChainDeferred times the depth-long chain through the
// NTT-resident pipeline: each level consumes the previous level's
// deferred handle and only the final result materializes.
func measureMulChainDeferred(n, depth int) (DCRTPoint, error) {
	params := bfv.ParamsSec54AtDegree(n)
	src := sampling.NewSourceFromUint64(uint64(n))
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	_ = sk
	enc := bfv.NewEncryptor(params, pk, src)
	ct0, err := enc.EncryptValue(11)
	if err != nil {
		return DCRTPoint{}, err
	}
	ct1, err := enc.EncryptValue(13)
	if err != nil {
		return DCRTPoint{}, err
	}
	ev := bfv.NewEvaluator(params, rlk)
	if !ev.CanDeferMuls() {
		return DCRTPoint{}, fmt.Errorf("bench: deferred multiplication unavailable at n=%d", n)
	}
	chain := func() error {
		var cur bfv.Value = ct0
		var prev *bfv.ProductNTT
		for d := 0; d < depth; d++ {
			next, err := ev.MulNTT(cur, ct1)
			if err != nil {
				return err
			}
			if prev != nil {
				prev.Release()
			}
			cur, prev = next, next
		}
		prev.Materialize()
		return nil
	}
	iters, ns, err := timeOp(chain, false)
	if err != nil {
		return DCRTPoint{}, err
	}
	return DCRTPoint{
		N:       n,
		QBits:   params.Q.Bits(),
		Backend: "dcrt-native-deferred",
		Depth:   depth,
		Iters:   iters,
		NsPerOp: ns,
	}, nil
}

// MeasureKernels times the raw transform and convolution primitives at
// ring degree n over a 60-bit basis prime — the kernel-level axis of
// BENCH_dcrt.json v5.
func MeasureKernels(n int) ([]DCRTPoint, error) {
	primes, err := nt.NTTPrimes(60, n, 1)
	if err != nil {
		return nil, err
	}
	tab, err := ntt.GetTable(primes[0], n)
	if err != nil {
		return nil, err
	}
	q := tab.R.Q
	qBits := 60
	a := make([]uint64, n)
	b := make([]uint64, n)
	dst := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i) * 12345 % q
		b[i] = uint64(i) * 54321 % q
	}
	// The lazy transforms accept their own lazy outputs as inputs
	// (ForwardLazy: < 4q, InverseLazy: < 2q), so every kernel self-feeds
	// without intermediate reduction — the rows measure exactly the
	// per-transform cost difference the lazy entry points exist for.
	kernels := []struct {
		name string
		fn   func() error
	}{
		{"ntt-forward", func() error { tab.Forward(a); return nil }},
		{"ntt-forward-lazy", func() error { tab.ForwardLazy(a); return nil }},
		{"ntt-inverse", func() error { tab.Inverse(a); return nil }},
		{"ntt-inverse-lazy", func() error { tab.InverseLazy(a); return nil }},
		{"convolve", func() error { tab.Convolve(dst, a, b); return nil }},
	}
	var out []DCRTPoint
	for _, k := range kernels {
		iters, ns, err := timeOp(k.fn, false)
		if err != nil {
			return nil, err
		}
		out = append(out, DCRTPoint{
			N: n, QBits: qBits, Backend: k.name, Op: "kernel",
			Iters: iters, NsPerOp: ns,
		})
		// Re-range for the next kernel (outside the timing): lazy rows
		// leave a below 4q, and the strict transforms require < q.
		for i, v := range a {
			for v >= q {
				v -= q
			}
			a[i] = v
		}
	}
	return out, nil
}

// MeasureKernelDispatch measures every dispatched kernel twice at ring
// degree n — once with the vector mode forced off (the scalar oracle)
// and once on the live mode's path — and returns the v6 dispatch
// section. The process-wide mode is restored before returning.
func MeasureKernelDispatch(n int) (*DispatchInfo, error) {
	primes, err := nt.NTTPrimes(60, n, 1)
	if err != nil {
		return nil, err
	}
	tab, err := ntt.GetTable(primes[0], n)
	if err != nil {
		return nil, err
	}
	r := tab.R
	q := r.Q
	rng := func(mul uint64, bound uint64) []uint64 {
		v := make([]uint64, n)
		for i := range v {
			v[i] = (uint64(i)*mul + 17) % bound
		}
		return v
	}
	a := rng(0x9E3779B97F4A7C15, 4*q)
	b := rng(0xBF58476D1CE4E5B9, 4*q)
	dst := make([]uint64, n)
	w := rng(12345, q)
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = r.ShoupConst(w[i])
	}
	const nd = 3
	k0 := make([][]uint64, nd)
	k1 := make([][]uint64, nd)
	digits := make([][]uint64, nd)
	for d := 0; d < nd; d++ {
		k0[d] = rng(uint64(7+d), q)
		k1[d] = rng(uint64(11+d), q)
		digits[d] = rng(uint64(13+d), 4*q)
	}
	acc0 := rng(3, q)
	acc1 := rng(5, q)
	idx := make([]uint32, n)
	for j := range idx {
		idx[j] = uint32((j * 7) % n)
	}
	// The transform rows self-feed: ForwardLazy tolerates its own < 4q
	// outputs and Inverse's canonical outputs re-enter its own domain.
	fwd := rng(1, q)
	inv := rng(2, q)
	kernels := map[string]func() error{
		"ntt-forward":         func() error { tab.ForwardLazy(fwd); return nil },
		"ntt-inverse":         func() error { tab.Inverse(inv); return nil },
		"pointwise-mul":       func() error { tab.PointwiseMul(dst, a, b); return nil },
		"pointwise-mul-shoup": func() error { ntt.MulShoupLazyVec(r, dst, a, w, ws); return nil },
		"mul-pair-add":        func() error { ntt.MulPairAddVec(r, dst, a, b, b, a); return nil },
		"acc-pair-128":        func() error { ntt.MulAddPair128(r, acc0, acc1, k0, k1, digits); return nil },
		"galois-acc-128":      func() error { ntt.GaloisAccPair128(r, acc0, acc1, k0, k1, digits, idx); return nil },
	}
	scalars := map[string]func() error{
		"ntt-forward":         func() error { tab.ForwardLazyScalar(fwd); return nil },
		"ntt-inverse":         func() error { tab.InverseScalar(inv); return nil },
		"pointwise-mul":       func() error { tab.PointwiseMulScalar(dst, a, b); return nil },
		"pointwise-mul-shoup": nil, // mode flip below: the Vec helpers dispatch internally
		"mul-pair-add":        nil,
		"acc-pair-128":        func() error { ntt.MulAddPair128Scalar(r, acc0, acc1, k0, k1, digits); return nil },
		"galois-acc-128":      func() error { ntt.GaloisAccPair128Scalar(r, acc0, acc1, k0, k1, digits, idx); return nil },
	}
	mode := ntt.VectorMode()
	defer ntt.SetVectorMode(mode)
	info := &DispatchInfo{
		CPU:     cpufeat.Host().String(),
		Mode:    mode,
		EnvNote: ntt.EnvNote(),
		N:       n,
	}
	for _, kp := range ntt.KernelPaths() {
		fn := kernels[kp.Kernel]
		if fn == nil {
			continue
		}
		if err := ntt.SetVectorMode(mode); err != nil {
			return nil, err
		}
		_, vecNs, err := timeOp(fn, false)
		if err != nil {
			return nil, err
		}
		sfn := scalars[kp.Kernel]
		if sfn == nil {
			// No pinned scalar entry point: force the mode off instead.
			if err := ntt.SetVectorMode("off"); err != nil {
				return nil, err
			}
			sfn = fn
		}
		_, scalNs, err := timeOp(sfn, false)
		if err != nil {
			return nil, err
		}
		row := KernelDispatchRow{
			Kernel:   kp.Kernel,
			Path:     kp.Path,
			Note:     kp.Note,
			ScalarNs: scalNs,
			VectorNs: vecNs,
		}
		if vecNs > 0 {
			row.SpeedupX = float64(scalNs) / float64(vecNs)
		}
		info.Kernels = append(info.Kernels, row)
	}
	return info, ntt.SetVectorMode(mode)
}

// MeasureDCRT measures EvalMul at depth 1 on the given backends (both
// tracked backends when the list is empty) for the given ring degrees,
// plus chained depth-3 and depth-5 runs of dcrt-native at the largest
// degree (with a deferred-pipeline row alongside each chain row), and
// returns the tracking figure plus the JSON report.
func MeasureDCRT(degrees []int, backendNames []string) (*Figure, *DCRTReport, error) {
	if len(backendNames) == 0 {
		backendNames = evalMulBackends
	}
	fig := &Figure{
		ID:     "dcrt",
		Title:  "Host EvalMul by hebfv backend, 54-bit q",
		XLabel: "Ring degree / chain depth",
		Unit:   "ms",
		PaperNote: "§4.1: SEAL's RNS+NTT evaluation is the optimization the paper's " +
			"PIM kernels defer; this repo's host path now has it, rescale included",
	}
	rep := &DCRTReport{
		Schema:      "repro/dcrt-evalmul/v7",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Op:          "EvalMul chain (tensor + relinearize per level); ns_per_op is per chain",
	}
	for _, n := range degrees {
		pts := map[string]*DCRTPoint{}
		for _, backend := range backendNames {
			p, err := measureEvalMul(n, 1, backend)
			if err != nil {
				return nil, nil, err
			}
			pts[backend] = &p
		}
		// Cross-backend speedups, where the reference rows were measured.
		if sb := pts["schoolbook"]; sb != nil {
			for _, name := range backendNames {
				if name != "schoolbook" {
					pts[name].SpeedupX = float64(sb.NsPerOp) / float64(pts[name].NsPerOp)
				}
			}
		}
		row := Row{Label: fmt.Sprintf("n=%d depth=1", n), Seconds: map[string]float64{}}
		for _, name := range backendNames {
			p := pts[name]
			row.Seconds[name] = float64(p.NsPerOp) / 1e9
			rep.Points = append(rep.Points, *p)
		}
		if nat := pts["dcrt-native"]; nat != nil && nat.SpeedupX > 0 {
			row.Annotation = fmt.Sprintf("%.0fx vs schoolbook", nat.SpeedupX)
		}
		fig.Rows = append(fig.Rows, row)
	}
	if len(degrees) == 0 {
		return fig, rep, nil
	}
	nMax := degrees[len(degrees)-1]
	// Depth chains: only meaningful for the double-CRT backend.
	depths := []int{1, 3, 5}
	if !slices.Contains(backendNames, "dcrt-native") {
		depths = nil
	}
	for _, depth := range depths {
		var natNs int64
		if depth > 1 {
			p, err := measureEvalMul(nMax, depth, "dcrt-native")
			if err != nil {
				return nil, nil, err
			}
			rep.Points = append(rep.Points, p)
			natNs = p.NsPerOp
		} else {
			// Depth-1 native was measured in the per-degree sweep.
			for _, p := range rep.Points {
				if p.N == nMax && p.Backend == "dcrt-native" && p.Depth == 1 && p.Op == "" {
					natNs = p.NsPerOp
				}
			}
		}
		// The NTT-resident Mul-chain row: deferred handles between
		// levels, one materialization at the end.
		def, err := measureMulChainDeferred(nMax, depth)
		if err != nil {
			return nil, nil, err
		}
		def.SpeedupSerX = float64(natNs) / float64(def.NsPerOp)
		rep.Points = append(rep.Points, def)
		if depth > 1 {
			fig.Rows = append(fig.Rows, Row{
				Label: fmt.Sprintf("n=%d depth=%d", nMax, depth),
				Seconds: map[string]float64{
					"dcrt-native":          float64(natNs) / 1e9,
					"dcrt-native-deferred": float64(def.NsPerOp) / 1e9,
				},
				Annotation: fmt.Sprintf("%.2fx deferred", def.SpeedupSerX),
			})
		}
	}
	if kpts, err := MeasureKernels(nMax); err == nil {
		rep.Points = append(rep.Points, kpts...)
	} else {
		return nil, nil, err
	}
	disp, err := MeasureKernelDispatch(nMax)
	if err != nil {
		return nil, nil, err
	}
	rep.Dispatch = disp
	return fig, rep, nil
}

// WriteDCRTJSON writes the report to path (the conventional name is
// BENCH_dcrt.json at the repo root).
func WriteDCRTJSON(path string, rep *DCRTReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// batchRig is the measured fixture of the batch axis: one encrypted
// ciphertext and k Galois keys at the 54-bit modulus, evaluated on a
// hebfv backend.
type batchRig struct {
	eng hebfv.Engine
	ct  *bfv.Ciphertext
	gks []*bfv.GaloisKey
}

// rotate is one engine dispatch of the rig's ciphertext under the given
// keys; its outputs are deferred wherever the backend defers.
func (rig *batchRig) rotate(gks ...*bfv.GaloisKey) ([]bfv.Value, error) {
	rows, err := rig.eng.Rotate([]bfv.Value{rig.ct}, gks)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

func newBatchRig(n, k int, backend string) (*batchRig, error) {
	params := bfv.ParamsSec54AtDegree(n)
	src := sampling.NewSourceFromUint64(uint64(1000*n + k))
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	enc := bfv.NewEncryptor(params, pk, src)
	ct, err := enc.EncryptValue(11)
	if err != nil {
		return nil, err
	}
	gks := make([]*bfv.GaloisKey, k)
	g := uint64(1)
	for i := range gks {
		g = g * 3 % uint64(2*n)
		gk, err := kg.GenGaloisKey(sk, g)
		if err != nil {
			return nil, err
		}
		gks[i] = gk
	}
	eng, err := hebfv.NewEngine(backend, hebfv.Config{Params: params})
	if err != nil {
		return nil, err
	}
	return &batchRig{eng: eng, ct: ct, gks: gks}, nil
}

// timeOp times fn (one full workload instance per call) with warmup,
// returning iterations and ns per op — the one timing policy every
// BENCH_dcrt.json axis measures under. single pins the timed run to one
// iteration, for backends that are seconds per op by design.
func timeOp(fn func() error, single bool) (int, int64, error) {
	if err := fn(); err != nil { // warm caches (key forms, twiddles, digit pools)
		return 0, 0, err
	}
	iters := 0
	start := time.Now()
	for {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		iters++
		if single || (time.Since(start) > 300*time.Millisecond && iters >= 3) || iters >= 50 {
			break
		}
	}
	return iters, time.Since(start).Nanoseconds() / int64(iters), nil
}

// MeasureBatch measures the batched-rotation axis at ring degree n with
// k Galois elements on the named backend (dcrt-native when empty):
// per-output rotation (serial vs hoisted vs hoisted with NTT-resident
// outputs) and the rotate-and-sum workload (serial fold vs hoisted fused
// reduction), plus the decryption row. It returns the tracking figure
// and the points.
func MeasureBatch(n, k int, backend string) (*Figure, []DCRTPoint, error) {
	if backend == "" {
		backend = "dcrt-native"
	}
	rig, err := newBatchRig(n, k, backend)
	if err != nil {
		return nil, nil, err
	}
	params := bfv.ParamsSec54AtDegree(n)
	fig := &Figure{
		ID:     "batch",
		Title:  fmt.Sprintf("Batched rotations: hoisted vs per-rotation digit decomposition, k=%d, 54-bit q, backend %s", k, backend),
		XLabel: "Workload",
		Unit:   "ms",
		PaperNote: "§2/§6: rotation is the operation the paper lists beyond add/mul; " +
			"hoisting shares one digit decomposition across all k Galois elements",
	}
	var collected []*DCRTPoint

	measure := func(op, name string, rotations int, fn func() error) (*DCRTPoint, error) {
		iters, ns, err := timeOp(fn, false)
		if err != nil {
			return nil, err
		}
		p := &DCRTPoint{N: n, QBits: params.Q.Bits(), Backend: name, Op: op,
			Rotations: rotations, Iters: iters, NsPerOp: ns}
		collected = append(collected, p)
		return p, nil
	}
	row := func(label string, cols map[string]*DCRTPoint, annotation string) {
		r := Row{Label: label, Seconds: map[string]float64{}, Annotation: annotation}
		for name, p := range cols {
			r.Seconds[name] = float64(p.NsPerOp) / 1e9
		}
		fig.Rows = append(fig.Rows, r)
	}

	serial, err := measure("rotate", "galois-serial", k, func() error {
		for _, gk := range rig.gks {
			if _, err := rig.rotate(gk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// One dispatch over all k keys, every output's base conversions paid.
	hoisted, err := measure("rotate", "galois-hoisted", k, func() error {
		rots, err := rig.rotate(rig.gks...)
		for _, r := range rots {
			r.Materialize()
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	hoisted.SpeedupSerX = float64(serial.NsPerOp) / float64(hoisted.NsPerOp)
	cols := map[string]*DCRTPoint{"Serial": serial, "Hoisted": hoisted}

	// NTT-resident outputs, released unconverted (the consumer aggregates
	// or discards) — only on the backend whose engine defers this shape,
	// so the row never mislabels a materialized fallback as deferred.
	if backend == "dcrt-native" {
		ntt, err := measure("rotate", "galois-hoisted-ntt", k, func() error {
			rots, err := rig.rotate(rig.gks...)
			for _, r := range rots {
				r.Release()
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		ntt.SpeedupSerX = float64(serial.NsPerOp) / float64(ntt.NsPerOp)
		cols["Hoisted-NTT"] = ntt
	}
	row(fmt.Sprintf("n=%d rotate k=%d", n, k), cols,
		fmt.Sprintf("%.1fx hoisted", hoisted.SpeedupSerX))

	serialSum, err := measure("rotate-sum", "galois-serial", k, func() error {
		acc := []bfv.Value{rig.ct.Clone()}
		for _, gk := range rig.gks {
			r, err := rig.rotate(gk)
			if err != nil {
				return err
			}
			if acc, err = rig.eng.Add(acc, r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	hoistedSum, err := measure("rotate-sum", "galois-hoisted", k, func() error {
		_, err := rig.eng.RotateAndSum([]bfv.Value{rig.ct}, rig.gks)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	hoistedSum.SpeedupSerX = float64(serialSum.NsPerOp) / float64(hoistedSum.NsPerOp)
	row(fmt.Sprintf("n=%d rotate-sum k=%d", n, k),
		map[string]*DCRTPoint{"Serial": serialSum, "Hoisted": hoistedSum},
		fmt.Sprintf("%.1fx hoisted", hoistedSum.SpeedupSerX))

	// Decryption (backend-independent), on a degree-1 ciphertext.
	src := sampling.NewSourceFromUint64(uint64(n))
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	enc := bfv.NewEncryptor(params, pk, src)
	dec := bfv.NewDecryptor(params, sk)
	ct, err := enc.EncryptValue(7)
	if err != nil {
		return nil, nil, err
	}
	decRNS, err := measure("decrypt", "decrypt-rns", 0, func() error {
		if dec.Decrypt(ct).Coeffs[0] != 7 {
			return fmt.Errorf("bench: RNS decrypt failed")
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	row(fmt.Sprintf("n=%d decrypt", n), map[string]*DCRTPoint{"Hoisted": decRNS}, "")

	points := make([]DCRTPoint, len(collected))
	for i, p := range collected {
		points[i] = *p
	}
	return fig, points, nil
}
