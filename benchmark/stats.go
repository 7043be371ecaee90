package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/hebfv"
)

// Plaintext bounds chosen so no statistic wraps mod t = 65537: a mean
// over 256 values below 32, 32 squares below 32², 3-feature dot
// products below 3·31², and a slot dot product of values below 4 over
// at most 4096 slots (4096·9 = 36864).
const (
	sampleBound  = 32
	dotprodBound = 4
)

// hostStats is stats_host's state: one key-owning dcrt-native context,
// its encrypted samples and the plaintext behind them.
type hostStats struct {
	sh    shape
	ctx   *hebfv.Context
	cts   []*hebfv.Ciphertext // meanCts samples; variance and linreg reuse a prefix
	plain [][]uint64
	da    *hebfv.Ciphertext // dot-product operands
	db    *hebfv.Ciphertext
	pa    []uint64
	pb    []uint64
}

func setupHostStats(sh shape, seed uint64) (*hostStats, error) {
	// InnerSum's rotation keys derive lazily, in the warm-up cycle.
	ctx, err := hebfv.New(append([]hebfv.Option{hebfv.WithSeed(seed)}, sh.host...)...)
	if err != nil {
		return nil, err
	}
	if need := 3 + 3*sh.linregSamples; sh.meanCts < need || sh.meanCts < sh.varSamples {
		return nil, fmt.Errorf("shape: %d samples cannot feed variance and linreg", sh.meanCts)
	}
	h := &hostStats{sh: sh, ctx: ctx}
	r := newRNG(seed, 11)
	encrypt := func(bound uint64) (*hebfv.Ciphertext, []uint64, error) {
		v := r.values(ctx.Slots(), bound)
		ct, err := ctx.EncryptSlots(v)
		return ct, v, err
	}
	for i := 0; i < sh.meanCts; i++ {
		ct, v, err := encrypt(sampleBound)
		if err != nil {
			return nil, err
		}
		h.cts, h.plain = append(h.cts, ct), append(h.plain, v)
	}
	if h.da, h.pa, err = encrypt(dotprodBound); err != nil {
		return nil, err
	}
	if h.db, h.pb, err = encrypt(dotprodBound); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *hostStats) close() { h.ctx.Close() }

// force materialises a deferred result: Degree is the facade's
// cheapest consumer of coefficients (no decryption, no serialisation).
func force(ct *hebfv.Ciphertext) {
	if ct != nil {
		ct.Degree()
	}
}

func release(cts ...*hebfv.Ciphertext) {
	for _, ct := range cts {
		if ct != nil {
			ct.Release()
		}
	}
}

// decryptsTo checks ct slot by slot against want; a short want is
// compared with every slot (InnerSum fills all slots with one value).
func (h *hostStats) decryptsTo(what string, ct *hebfv.Ciphertext, want []uint64) error {
	got, err := h.ctx.DecryptSlots(ct)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	for i, g := range got {
		if w := want[i%len(want)]; g != w {
			return fmt.Errorf("%s: slot %d decrypts to %d, plaintext recomputation gives %d", what, i, g, w)
		}
	}
	return nil
}

// Each phase returns the time of the homomorphic computation alone; the
// decrypt-and-compare check runs after the clock stops. Spans, when
// traced, wrap every facade call.

// mean = Sum of meanCts ciphertexts.
func (h *hostStats) mean(tr *tracer, req int) (time.Duration, error) {
	var sum *hebfv.Ciphertext
	var err error
	t0 := time.Now()
	root := tr.begin("stats.mean", -1, req)
	tr.do("hebfv.sum", root, req, func() { sum, err = h.ctx.Sum(h.cts) })
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	want := make([]uint64, h.ctx.Slots())
	for _, v := range h.plain {
		for i, x := range v {
			want[i] += x
		}
	}
	return d, h.decryptsTo("mean", sum, want)
}

// variance = Square of varSamples samples, Sum of the squares and Sum
// of the samples (the client divides and subtracts after decryption).
func (h *hostStats) variance(tr *tracer, req int) (time.Duration, error) {
	samples := h.cts[:h.sh.varSamples]
	squares := make([]*hebfv.Ciphertext, len(samples))
	var sumSq, sumX *hebfv.Ciphertext
	var err error
	t0 := time.Now()
	root := tr.begin("stats.variance", -1, req)
	for i, ct := range samples {
		tr.do("hebfv.square", root, req, func() {
			if err == nil {
				squares[i], err = h.ctx.Square(ct)
			}
		})
	}
	if err == nil {
		tr.do("hebfv.sum", root, req, func() { sumSq, err = h.ctx.Sum(squares) })
	}
	if err == nil {
		tr.do("hebfv.sum", root, req, func() { sumX, err = h.ctx.Sum(samples) })
	}
	tr.do("hebfv.force", root, req, func() { force(sumSq) })
	tr.do("hebfv.release", root, req, func() { release(squares...) })
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	wantSq, wantX := make([]uint64, h.ctx.Slots()), make([]uint64, h.ctx.Slots())
	for _, v := range h.plain[:len(samples)] {
		for i, x := range v {
			wantSq[i] += x * x
			wantX[i] += x
		}
	}
	if err := h.decryptsTo("variance Σx²", sumSq, wantSq); err != nil {
		return 0, err
	}
	return d, h.decryptsTo("variance Σx", sumX, wantX)
}

// linreg = for each sample, MulMany(weights, features) then Sum: one
// encrypted prediction per sample.
func (h *hostStats) linreg(tr *tracer, req int) (time.Duration, error) {
	const features = 3
	weights := h.cts[:features]
	preds := make([]*hebfv.Ciphertext, h.sh.linregSamples)
	var err error
	t0 := time.Now()
	root := tr.begin("stats.linreg", -1, req)
	for s := range preds {
		x := h.cts[features*(s+1) : features*(s+2)]
		var prods []*hebfv.Ciphertext
		tr.do("hebfv.mul_many", root, req, func() { prods, err = h.ctx.MulMany(weights, x) })
		if err != nil {
			break
		}
		tr.do("hebfv.sum", root, req, func() { preds[s], err = h.ctx.Sum(prods) })
		if err != nil {
			break
		}
		tr.do("hebfv.force", root, req, func() { force(preds[s]) })
		tr.do("hebfv.release", root, req, func() { release(prods...) })
	}
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	for s, pred := range preds {
		want := make([]uint64, h.ctx.Slots())
		for f := 0; f < features; f++ {
			for i, w := range h.plain[f] {
				want[i] += w * h.plain[features*(s+1)+f][i]
			}
		}
		if err := h.decryptsTo(fmt.Sprintf("linreg prediction %d", s), pred, want); err != nil {
			return 0, err
		}
	}
	return d, nil
}

// dotprod = Mul then InnerSum: every slot holds Σ aᵢ·bᵢ.
func (h *hostStats) dotprod(tr *tracer, req int) (time.Duration, error) {
	var prod, dot *hebfv.Ciphertext
	var err error
	t0 := time.Now()
	root := tr.begin("stats.dotprod", -1, req)
	tr.do("hebfv.mul", root, req, func() { prod, err = h.ctx.Mul(h.da, h.db) })
	if err == nil {
		tr.do("hebfv.inner_sum", root, req, func() { dot, err = h.ctx.InnerSum(prod) })
	}
	tr.do("hebfv.release", root, req, func() { release(prod) })
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	var want uint64
	for i, a := range h.pa {
		want += a * h.pb[i]
	}
	return d, h.decryptsTo("dotprod", dot, []uint64{want})
}

// statsCycle is the time of each of the four statistics in one cycle.
type statsCycle [4]time.Duration

var statNames = [4]string{"mean", "variance", "linreg", "dotprod"}

func (h *hostStats) cycle(tr *tracer, req int) (statsCycle, error) {
	var c statsCycle
	for i, phase := range []func(*tracer, int) (time.Duration, error){h.mean, h.variance, h.linreg, h.dotprod} {
		d, err := phase(tr, req)
		if err != nil {
			return c, err
		}
		c[i] = d
	}
	return c, nil
}

// cycles repeats the cycle until the window closes (at least once) and
// returns the per-cycle times.
func (h *hostStats) cycles(tr *tracer, window time.Duration) ([]statsCycle, error) {
	var out []statsCycle
	for deadline := time.Now().Add(window); len(out) == 0 || time.Now().Before(deadline); {
		c, err := h.cycle(tr, len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// perStat returns each statistic's times across cycles, plus the busy
// time of all of them.
func perStat(cs []statsCycle) (by [4][]time.Duration, busy time.Duration) {
	for _, c := range cs {
		for i, d := range c {
			by[i] = append(by[i], d)
			busy += d
		}
	}
	return by, busy
}

func runHostStats(cfg config) (*result, error) {
	h, setupS, err := timedSetup(func() (*hostStats, error) { return setupHostStats(cfg.shape, cfg.seed) }, (*hostStats).close)
	if err != nil {
		return nil, err
	}
	defer h.close()
	if _, err := h.cycle(nil, 0); err != nil { // warm-up: NTT tables, operand forms, scratch pools
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cs, err := h.cycles(nil, cfg.window)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	by, busy := perStat(cs)
	// The heavy operation is the three multiplication-bound statistics
	// of one cycle, back to back.
	heavy := make([]time.Duration, len(cs))
	for i, c := range cs {
		heavy[i] = c[1] + c[2] + c[3]
	}
	ops := 4 * len(cs)
	res := newResult()
	res.Attempted = ops
	res.set("setup_s", setupS, setupReps)
	res.set("ops_per_s", float64(ops)/busy.Seconds(), ops)
	res.set("light_p50_ms", ms(p50(by[0])), len(cs))
	res.set("heavy_p50_ms", ms(p50(heavy)), len(cs))
	res.set("alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(ops), ops)
	sh := cfg.shape
	res.notef("%d cycles; mean %.0f cts/s, variance %.0f cts/s, linreg %.1f preds/s, dotprod %.1f /s",
		len(cs), float64(sh.meanCts)/p50(by[0]).Seconds(), float64(sh.varSamples)/p50(by[1]).Seconds(),
		float64(sh.linregSamples)/p50(by[2]).Seconds(), 1/p50(by[3]).Seconds())
	return res, nil
}

// --- stats_pim ---

// pimStats is stats_pim's state: a "pim" context for the mean, a small
// one for the multiplications, and for each a dcrt-native twin holding
// the same keys whose results the PIM plane must reproduce byte for byte.
type pimStats struct {
	sum     *hebfv.Context
	cts     []*hebfv.Ciphertext
	wantSum []byte
	plain   []uint64 // expected slot sums

	mul     *hebfv.Context
	ma, mb  *hebfv.Ciphertext
	wantMul []byte
}

// pimTopology is 4 ranks × 64 DPUs, so that rank overlap is exercised.
var pimTopology = hebfv.WithPIMTopology(4, 64)

// twin restores a dcrt-native context from ctx's full key set and
// rebinds the ciphertexts to it.
func twin(ctx *hebfv.Context, preset []hebfv.Option, cts []*hebfv.Ciphertext) (*hebfv.Context, []*hebfv.Ciphertext, error) {
	keys, err := ctx.ExportKeys(true)
	if err != nil {
		return nil, nil, err
	}
	host, err := hebfv.New(append([]hebfv.Option{hebfv.WithKeySet(keys), hebfv.WithBackend("dcrt-native")}, preset...)...)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*hebfv.Ciphertext, len(cts))
	for i, ct := range cts {
		blob, err := ct.MarshalBinary()
		if err != nil {
			return nil, nil, err
		}
		if out[i], err = host.UnmarshalCiphertext(blob); err != nil {
			return nil, nil, err
		}
	}
	return host, out, nil
}

func setupPIMStats(sh shape, seed uint64) (*pimStats, error) {
	p := &pimStats{}
	var err error
	if p.sum, err = hebfv.New(append([]hebfv.Option{hebfv.WithSeed(seed), hebfv.WithBackend("pim"), pimTopology}, sh.host...)...); err != nil {
		return nil, err
	}
	r := newRNG(seed, 13)
	p.plain = make([]uint64, p.sum.Slots())
	for i := 0; i < sh.pimSumCts; i++ {
		v := r.values(p.sum.Slots(), sampleBound)
		ct, err := p.sum.EncryptSlots(v)
		if err != nil {
			return nil, err
		}
		p.cts = append(p.cts, ct)
		for j, x := range v {
			p.plain[j] += x
		}
	}
	host, hostCts, err := twin(p.sum, sh.host, p.cts)
	if err != nil {
		return nil, err
	}
	defer host.Close()
	want, err := host.Sum(hostCts)
	if err != nil {
		return nil, err
	}
	if p.wantSum, err = want.MarshalBinary(); err != nil {
		return nil, err
	}

	if p.mul, err = hebfv.New(append([]hebfv.Option{hebfv.WithSeed(seed + 1), hebfv.WithBackend("pim"), pimTopology}, sh.pimMul...)...); err != nil {
		return nil, err
	}
	if p.ma, err = p.mul.EncryptSlots(r.values(p.mul.Slots(), dotprodBound)); err != nil {
		return nil, err
	}
	if p.mb, err = p.mul.EncryptSlots(r.values(p.mul.Slots(), dotprodBound)); err != nil {
		return nil, err
	}
	mulHost, ops, err := twin(p.mul, sh.pimMul, []*hebfv.Ciphertext{p.ma, p.mb})
	if err != nil {
		return nil, err
	}
	defer mulHost.Close()
	prod, err := mulHost.Mul(ops[0], ops[1])
	if err != nil {
		return nil, err
	}
	p.wantMul, err = prod.MarshalBinary()
	return p, err
}

func (p *pimStats) close() {
	p.sum.Close()
	p.mul.Close()
}

// simDelta is what one operation added to a context's PIMBreakdown.
// Simulated figures are modelled and unvalidated against UPMEM
// hardware; they must repeat exactly from call to call.
type simDelta struct {
	makespan, serial, kernel, copyIn, copyOut float64 // simulated seconds
	cycles, bytesIn, bytesOut                 int64
	launches, shards, retried, resharded      int
}

func breakdownDelta(before, after hebfv.PIMBreakdown) simDelta {
	return simDelta{
		makespan:  after.MakespanSeconds - before.MakespanSeconds,
		serial:    after.SerialSeconds - before.SerialSeconds,
		kernel:    after.KernelSeconds - before.KernelSeconds,
		copyIn:    after.CopyInSeconds - before.CopyInSeconds,
		copyOut:   after.CopyOutSeconds - before.CopyOutSeconds,
		cycles:    after.KernelCycles - before.KernelCycles,
		bytesIn:   after.BytesIn - before.BytesIn,
		bytesOut:  after.BytesOut - before.BytesOut,
		launches:  after.Launches - before.Launches,
		shards:    after.Shards - before.Shards,
		retried:   after.Retried - before.Retried,
		resharded: after.Resharded - before.Resharded,
	}
}

// same reports whether two calls cost the same simulated work: the
// integer counters exactly, and the times to within the rounding of the
// running float totals they are differences of.
func (d simDelta) same(o simDelta) bool {
	const eps = 1e-12 // seconds; the totals are seconds at most
	near := func(a, b float64) bool { return math.Abs(a-b) <= eps }
	return d.cycles == o.cycles && d.bytesIn == o.bytesIn && d.bytesOut == o.bytesOut &&
		d.launches == o.launches && d.shards == o.shards && d.retried == o.retried && d.resharded == o.resharded &&
		near(d.makespan, o.makespan) && near(d.serial, o.serial) && near(d.kernel, o.kernel) &&
		near(d.copyIn, o.copyIn) && near(d.copyOut, o.copyOut)
}

// pimCall times one evaluation on a "pim" context, returns its
// simulated cost and checks the output against the host twin's bytes.
func pimCall(what string, ctx *hebfv.Context, want []byte, eval func() (*hebfv.Ciphertext, error)) (time.Duration, simDelta, error) {
	before, ok := ctx.PIMBreakdown()
	if !ok {
		return 0, simDelta{}, errors.New(what + ": backend reports no PIM breakdown")
	}
	t0 := time.Now()
	out, err := eval()
	d := time.Since(t0)
	if err != nil {
		return 0, simDelta{}, fmt.Errorf("%s: %w", what, err)
	}
	after, _ := ctx.PIMBreakdown()
	got, err := out.MarshalBinary()
	if err != nil {
		return 0, simDelta{}, err
	}
	if !bytes.Equal(got, want) {
		return 0, simDelta{}, fmt.Errorf("%s: PIM result differs from the dcrt-native result", what)
	}
	if fo, ok := ctx.FailoverStats(); ok && fo.Engaged {
		return 0, simDelta{}, fmt.Errorf("%s: the pim backend failed over to the host", what)
	}
	return d, breakdownDelta(before, after), nil
}

func (p *pimStats) sumCall() (time.Duration, simDelta, error) {
	return pimCall("pim mean", p.sum, p.wantSum, func() (*hebfv.Ciphertext, error) { return p.sum.Sum(p.cts) })
}

func (p *pimStats) mulCall() (time.Duration, simDelta, error) {
	return pimCall("pim mul", p.mul, p.wantMul, func() (*hebfv.Ciphertext, error) { return p.mul.Mul(p.ma, p.mb) })
}

// repeatCall calls f until the window closes, or exactly n times when
// n > 0, and insists that every call cost the same simulated work.
func repeatCall(what string, window time.Duration, n int, f func() (time.Duration, simDelta, error)) ([]time.Duration, simDelta, error) {
	var host []time.Duration
	var first simDelta
	deadline := time.Now().Add(window)
	more := func() bool {
		if n > 0 {
			return len(host) < n
		}
		return len(host) == 0 || time.Now().Before(deadline)
	}
	for more() {
		d, sim, err := f()
		if err != nil {
			return nil, first, err
		}
		if len(host) == 0 {
			first = sim
		} else if !sim.same(first) {
			return nil, first, fmt.Errorf("%s: simulated cost changed between calls: %+v then %+v", what, first, sim)
		}
		host = append(host, d)
	}
	return host, first, nil
}

func runPIMStats(cfg config) (*result, error) {
	p, setupS, err := timedSetup(func() (*pimStats, error) { return setupPIMStats(cfg.shape, cfg.seed) }, (*pimStats).close)
	if err != nil {
		return nil, err
	}
	defer p.close()
	// The simulator's host time on two processors is bimodal from one
	// process to the next (a Mul takes 4.0 s or 6.6 s here: neighbouring
	// DPU structs share cache lines, and what that costs depends on
	// where the two threads land), which no bound could hold. On one
	// processor it is steady, so this workload measures the simulator
	// there; the traced pass reports hepim.*_ms on all processors.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, _, err := p.sumCall(); err != nil { // warm-up
		return nil, err
	}
	if _, _, err := p.mulCall(); err != nil { // warm-up: the first Mul of a context is ≈ 1 s slower
		return nil, err
	}
	mean, err := p.sum.Sum(p.cts)
	if err != nil {
		return nil, err
	}
	got, err := p.sum.DecryptSlots(mean)
	if err != nil {
		return nil, err
	}
	for i, g := range got {
		if g != p.plain[i] {
			return nil, fmt.Errorf("pim mean: slot %d decrypts to %d, plaintext sum is %d", i, g, p.plain[i])
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sums, simSum, err := repeatCall("pim mean", cfg.window, 0, p.sumCall)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	// A PIM Mul costs seconds of host time, so it is a fixed number of
	// calls after the window, not a share of it.
	muls, simMul, err := repeatCall("pim mul", 0, cfg.shape.pimMuls, p.mulCall)
	if err != nil {
		return nil, err
	}
	var busy time.Duration
	for _, d := range sums {
		busy += d
	}
	res := newResult()
	res.Attempted = len(sums) + len(muls)
	res.set("setup_s", setupS, setupReps)
	res.set("ops_per_s", float64(len(sums))/busy.Seconds(), len(sums))
	res.set("light_p50_ms", ms(p50(sums)), len(sums))
	res.set("heavy_p50_ms", ms(p50(muls)), len(muls))
	res.set("alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(len(sums)), len(sums))
	res.notef("mean: %.0f cts/s host; simulated (modelled, unvalidated against UPMEM hardware) makespan %.6f ms per Sum of %d, %.3f ms per Mul — identical on all %d+%d calls",
		float64(cfg.shape.pimSumCts)*float64(len(sums))/busy.Seconds(), simSum.makespan*1e3, cfg.shape.pimSumCts, simMul.makespan*1e3, len(sums), len(muls))
	return res, nil
}
