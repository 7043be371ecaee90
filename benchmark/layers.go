package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/hebfv"
	"repro/internal/bfv"
	"repro/internal/dcrt"
	"repro/internal/limb32"
	"repro/internal/ntt"
	"repro/internal/pim"
	"repro/internal/pim/kernels"
	"repro/internal/pimsched"
	"repro/internal/polypool"
	"repro/internal/sampling"
)

// runLayers is the traced pass. Per-layer metrics describe layers, not
// workloads, and a run must print all of them, so every invocation
// measures every section — a live window and a traced replay of each
// workload, then a fixed-iteration table of the functions below the
// facade — whichever workload it was started for. All spans are
// recorded here, around calls into public functions; nothing inside the
// program is instrumented.
func runLayers(cfg config) (*result, error) {
	res := newResult()
	for _, section := range []func(config, *result) error{
		servedLayers, churnLayers, statsLayers, pimLayers, facadeTable, engineTables,
	} {
		if err := section(cfg, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// --- hebfv/serve: live window plus traced walk of handleEval's steps ---

// The steps of one served evaluation, as walked by hand below. wait and
// engine split the Coalescer call: engine is the direct length-1 batch
// call on the same operands, wait is the rest — time spent queued for
// the coalescing window.
const (
	stepAcquire = iota
	stepDecode
	stepWait
	stepEngine
	stepEncode
	stepRelease
	stepGaps // between spans: the tracer itself
	numSteps
)

var stepNames = [numSteps]string{
	"serve   Cache.Acquire",
	"hebfv   ReadCiphertext (all operands)",
	"serve   Coalescer wait for the window",
	"hebfv   batch call of 1 (engine)",
	"hebfv   MarshalTo (forces a deferred mul)",
	"hebfv   Release + unpin",
	"harness between spans",
}

type walked struct {
	op    opKind
	steps [numSteps]time.Duration
	total time.Duration
}

// walk performs one request the way serve.handleEval does, one span per
// public call, and checks the bytes it produces.
func walk(tr *tracer, rg *rig, req request, id int, buf *bytes.Buffer) (walked, error) {
	t := rg.tenants[req.tenant]
	srv := rg.srv
	w := walked{op: req.op}
	var (
		ctx       *hebfv.Context
		unpin     func()
		a, b, out *hebfv.Ciphertext
		err       error
	)
	body := bytes.NewReader(t.bodies[req.op][req.pair])
	root := tr.begin("request."+opNames[req.op], -1, id)
	sAcq := tr.begin("serve.cache.acquire", root, id)
	ctx, unpin, err = srv.Cache().Acquire(t.id)
	tr.end(sAcq)
	if err != nil {
		return w, err
	}
	sA := tr.begin("hebfv.read_ciphertext", root, id)
	a, err = ctx.ReadCiphertext(body)
	tr.end(sA)
	sB := -1
	if err == nil && req.op != opRotate {
		sB = tr.begin("hebfv.read_ciphertext", root, id)
		b, err = ctx.ReadCiphertext(body)
		tr.end(sB)
	}
	if err != nil {
		return w, err
	}
	sCo := tr.begin("serve.coalesce."+opNames[req.op], root, id)
	switch req.op {
	case opAdd:
		out, err = srv.Coalescer().Add(ctx, a, b)
	case opMul:
		out, err = srv.Coalescer().Mul(ctx, a, b)
	case opRotate:
		out, err = srv.Coalescer().RotateRows(ctx, a, 1)
	}
	tr.end(sCo)
	if err != nil {
		return w, err
	}
	buf.Reset()
	sEnc := tr.begin("hebfv.marshal_to", root, id)
	err = out.MarshalTo(buf)
	tr.end(sEnc)
	sRel := tr.begin("hebfv.release", root, id)
	release(out, a, b)
	unpin()
	tr.end(sRel)
	tr.end(root)
	if err != nil {
		return w, err
	}
	if !bytes.Equal(buf.Bytes(), t.expected[req.op][req.pair]) {
		return w, fmt.Errorf("traced %s: bytes differ from the key owner's result", opNames[req.op])
	}

	// The same batch call made directly, outside the request: what the
	// coalescer's flush goroutine ran at the end of the window.
	ctx, unpin, err = srv.Cache().Acquire(t.id)
	if err != nil {
		return w, err
	}
	defer unpin()
	body.Reset(t.bodies[req.op][req.pair])
	if a, err = ctx.ReadCiphertext(body); err != nil {
		return w, err
	}
	as, bs := []*hebfv.Ciphertext{a}, []*hebfv.Ciphertext{nil}
	if req.op != opRotate {
		if bs[0], err = ctx.ReadCiphertext(body); err != nil {
			return w, err
		}
	}
	var outs []*hebfv.Ciphertext
	t0 := time.Now()
	switch req.op {
	case opAdd:
		outs, err = ctx.AddMany(as, bs)
	case opMul:
		outs, err = ctx.MulMany(as, bs)
	case opRotate:
		outs, err = ctx.RotateRowsEach(as, 1)
	}
	direct := time.Since(t0)
	if err != nil {
		return w, err
	}
	release(outs[0], a, bs[0])
	tr.place("hebfv."+opNames[req.op]+"_batch1", sCo, id, direct)

	w.total = tr.dur(root)
	w.steps[stepAcquire] = tr.dur(sAcq)
	w.steps[stepDecode] = tr.dur(sA)
	if sB >= 0 {
		w.steps[stepDecode] += tr.dur(sB)
	}
	w.steps[stepWait] = tr.dur(sCo) - direct
	w.steps[stepEngine] = direct
	w.steps[stepEncode] = tr.dur(sEnc)
	w.steps[stepRelease] = tr.dur(sRel)
	w.steps[stepGaps] = w.total - tr.dur(sAcq) - w.steps[stepDecode] - tr.dur(sCo) - tr.dur(sEnc) - tr.dur(sRel)
	return w, nil
}

// replayServed replays the first n requests of each worker's seeded
// serve_mixed sequence in-process, with the same two concurrent callers
// as the live window so that they contend for the cores the same way.
func replayServed(tr *tracer, rg *rig, seed uint64, n int) ([]walked, error) {
	parts := make([][]walked, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := newMixedGen(seed, w, len(rg.tenants), mixedPairs)
			var buf bytes.Buffer
			for i := 0; i < n && errs[w] == nil; i++ {
				var wk walked
				wk, errs[w] = walk(tr, rg, gen.next(), w*n+i, &buf)
				parts[w] = append(parts[w], wk)
			}
		}(w)
	}
	wg.Wait()
	var all []walked
	for w := range parts {
		if errs[w] != nil {
			return nil, errs[w]
		}
		all = append(all, parts[w]...)
	}
	return all, nil
}

func servedLayers(cfg config, res *result) error {
	sh := cfg.shape
	rg, err := setupMixed(sh, cfg.seed)
	if err != nil {
		return err
	}
	defer rg.stop()
	mixedLoad(rg, cfg.seed+1<<32, sh.warmup)
	pool0, coal0 := rg.srv.Cache().PoolStats(), rg.srv.Coalescer().Stats()
	l := mixedLoad(rg, cfg.seed, sh.layerWindow)
	pool1, coal1 := rg.srv.Cache().PoolStats(), rg.srv.Coalescer().Stats()
	res.Attempted += l.attempted
	res.Failed += l.failed
	if l.firstErr != nil {
		res.problem(l.firstErr)
	}
	if err := rg.settled(); err != nil {
		res.problem(err)
	}
	if coal1.Batches == coal0.Batches || pool1.Gets == pool0.Gets {
		return fmt.Errorf("serve_mixed live window is empty (%v)", l.firstErr)
	}
	res.set("serve.coalesce.avg_batch", float64(coal1.Ops-coal0.Ops)/float64(coal1.Batches-coal0.Batches), int(coal1.Batches-coal0.Batches))
	res.set("serve.rejections", float64(rg.srv.Stats().Rejections), l.attempted)
	res.set("hebfv.pool.hit_rate", float64(pool1.Hits-pool0.Hits)/float64(pool1.Gets-pool0.Gets), int(pool1.Gets-pool0.Gets))
	res.set("hebfv.pool.in_use_end", float64(rg.srv.Cache().PoolStats().InUse), 1)

	tr := newTracer()
	walks, err := replayServed(tr, rg, cfg.seed, sh.replay)
	if err != nil {
		return err
	}
	if err := rg.settled(); err != nil {
		res.problem(err)
	}
	if err := tr.write(cfg, "serve_mixed"); err != nil {
		return err
	}
	var acquire []time.Duration
	for op := opKind(0); op < numOps; op++ {
		name := opNames[op]
		served := l.lat[op]
		if len(served) == 0 {
			return fmt.Errorf("no served %s in the live window (%v)", name, l.firstErr)
		}
		pct := tailPercentile(len(served))
		served50 := p50(served)
		res.set("serve.http."+name+"_p50_ms", ms(served50), len(served))
		res.set("serve.http."+name+"_tail_ms", ms(quantile(served, float64(pct)/100)), len(served))

		var steps [numSteps][]time.Duration
		var totals []time.Duration
		for _, w := range walks {
			if w.op != op {
				continue
			}
			for s, d := range w.steps {
				steps[s] = append(steps[s], d)
			}
			totals = append(totals, w.total)
			acquire = append(acquire, w.steps[stepAcquire])
		}
		layerSum := p50(totals)
		residual := served50 - layerSum
		res.set("serve.coalesce."+name+"_wait_us", us(p50(steps[stepWait])), len(totals))
		res.set("serve.http."+name+"_residual_us", us(residual), len(totals))
		if op == opAdd { // an add's output is already in coefficient form: these are the pure wire costs
			res.set("hebfv.marshal_to_us", us(p50(steps[stepEncode])), len(totals))
			res.set("hebfv.release_us", us(p50(steps[stepRelease])), len(totals))
		}

		res.notef("served %s: p50 %.3f ms, p%d %.3f ms (n=%d live, %d traced); layer / measured p50 / share of served p50",
			name, ms(served50), pct, ms(quantile(served, float64(pct)/100)), len(served), len(totals))
		share := func(d time.Duration) float64 { return 100 * float64(d) / float64(served50) }
		rows := layerSum
		for s := range steps {
			d := p50(steps[s])
			rows -= d
			res.notef("  %-40s %9.1f us %6.1f%%", stepNames[s], us(d), share(d))
		}
		res.notef("  %-40s %9.1f us %6.1f%%", "medians do not add: p50(sum) - sum(p50)", us(rows), share(rows))
		res.notef("  %-40s %9.1f us %6.1f%%", "serve.http."+name+"_residual_us (HTTP, TCP, admission, scheduling)", us(residual), share(residual))
	}
	res.set("serve.cache.acquire_us", us(p50(acquire)), len(acquire))
	reads := tr.byName()["hebfv.read_ciphertext"]
	res.set("hebfv.read_ciphertext_us", us(p50(reads)), len(reads))
	return nil
}

// --- hebfv/serve cache write path: live churn window plus traced builds ---

func churnLayers(cfg config, res *result) error {
	sh := cfg.shape
	rg, err := setupChurn(sh, cfg.seed)
	if err != nil {
		return err
	}
	defer rg.stop()
	churnLoad(rg, cfg.seed+1<<32, sh.warmup)
	c0 := rg.srv.Cache().Stats()
	l := churnLoad(rg, cfg.seed, sh.layerWindow)
	c1 := rg.srv.Cache().Stats()
	res.Attempted += l.attempted
	res.Failed += l.failed
	if l.firstErr != nil {
		res.problem(l.firstErr)
	}
	if err := rg.settled(); err != nil {
		res.problem(err)
	}
	if len(l.onboard) == 0 {
		return fmt.Errorf("serve_churn live window onboarded nobody (%v)", l.firstErr)
	}
	res.set("serve.cache.hits", float64(c1.Hits-c0.Hits), l.attempted)
	res.set("serve.cache.misses", float64(c1.Misses-c0.Misses), l.attempted)
	res.set("serve.cache.builds", float64(c1.Builds-c0.Builds), l.attempted)
	res.set("serve.cache.evictions", float64(c1.Evictions-c0.Evictions), l.attempted)
	res.set("serve.http.onboard_p50_ms", ms(p50(l.onboard)), len(l.onboard))

	// Traced: AcquireOrBuild with each tenant's real blob in turn. More
	// tenants than slots, visited round-robin, so once the live window's
	// residents are gone every call misses, builds, inserts and evicts
	// (closing the evicted context).
	tr := newTracer()
	var builds []time.Duration
	for i := 0; i < 2*len(rg.tenants)+churnResident; i++ {
		t := rg.tenants[i%len(rg.tenants)]
		root := tr.begin("serve.cache.acquire_or_build", -1, i)
		_, unpin, built, err := rg.srv.Cache().AcquireOrBuild(t.id, func() (ctx *hebfv.Context, n int64, err error) {
			tr.do("hebfv.import_keys", root, i, func() {
				ctx, err = hebfv.New(append([]hebfv.Option{hebfv.WithKeySetFrom(bytes.NewReader(t.keyBlob))}, sh.host...)...)
			})
			return ctx, int64(len(t.keyBlob)), err
		})
		tr.end(root)
		if err != nil {
			return err
		}
		unpin()
		if built {
			builds = append(builds, tr.dur(root))
		}
	}
	if len(builds) < 2*len(rg.tenants) {
		res.problem(fmt.Errorf("only %d of the traced AcquireOrBuild calls built: the cache budget holds more than %d tenants", len(builds), churnResident))
	}
	if err := tr.write(cfg, "serve_churn"); err != nil {
		return err
	}
	by := tr.byName()
	res.set("serve.cache.build_ms", ms(p50(builds)), len(builds))
	res.set("hebfv.import_keys_ms", ms(p50(by["hebfv.import_keys"])), len(by["hebfv.import_keys"]))
	return nil
}

// --- hebfv facade under the statistics: traced cycles and tracing overhead ---

func statsLayers(cfg config, res *result) error {
	h, err := setupHostStats(cfg.shape, cfg.seed)
	if err != nil {
		return err
	}
	defer h.close()
	if _, err := h.cycle(nil, 0); err != nil {
		return err
	}
	// Plain and traced cycles alternate, so that drift in the machine's
	// speed falls on both alike.
	const n = 4
	tr := newTracer()
	var plain, traced []statsCycle
	for i := 0; i < n; i++ {
		for _, side := range []struct {
			tr  *tracer
			dst *[]statsCycle
		}{{nil, &plain}, {tr, &traced}} {
			c, err := h.cycle(side.tr, i)
			if err != nil {
				return err
			}
			*side.dst = append(*side.dst, c)
		}
	}
	if err := tr.write(cfg, "stats_host"); err != nil {
		return err
	}
	res.Attempted += 2 * 4 * n
	by, _ := perStat(plain)
	for i, name := range statNames {
		res.set("hebfv.stats."+name+"_ms", ms(p50(by[i])), n)
	}
	// The same cycles with and without spans: the throughput lost to tracing.
	busy := func(cs []statsCycle) time.Duration {
		var each []time.Duration
		for _, c := range cs {
			each = append(each, c[0]+c[1]+c[2]+c[3])
		}
		return p50(each)
	}
	res.set("trace.overhead_pct", 100*(busy(traced).Seconds()/busy(plain).Seconds()-1), n)
	type kv struct {
		name string
		d    time.Duration
	}
	var self []kv
	for name, d := range tr.selfByName() {
		self = append(self, kv{name, d})
	}
	sort.Slice(self, func(i, j int) bool { return self[i].d > self[j].d })
	res.notef("stats_host traced self time over %d cycles:", n)
	for _, s := range self {
		res.notef("  %-24s %10.3f ms", s.name, ms(s.d))
	}
	return nil
}

// --- simulated PIM plane ---

func pimLayers(cfg config, res *result) error {
	sh := cfg.shape
	p, err := setupPIMStats(sh, cfg.seed)
	if err != nil {
		return err
	}
	defer p.close()
	if _, _, err := p.sumCall(); err != nil {
		return err
	}
	tr := newTracer()
	span := func(name string, f func() (time.Duration, simDelta, error)) func() (time.Duration, simDelta, error) {
		return func() (d time.Duration, sim simDelta, err error) {
			tr.do(name, -1, 0, func() { d, sim, err = f() })
			return d, sim, err
		}
	}
	sums, simSum, err := repeatCall("pim mean", 0, 3, span("hepim.sum", p.sumCall))
	if err != nil {
		return err
	}
	muls, simMul, err := repeatCall("pim mul", 0, 1, span("hepim.mul", p.mulCall))
	if err != nil {
		return err
	}
	var adds []time.Duration
	for i := 0; i < 3; i++ {
		var sum *hebfv.Ciphertext
		t0 := time.Now()
		tr.do("hepim.add", -1, 0, func() { sum, err = p.sum.Add(p.cts[0], p.cts[1]) })
		adds = append(adds, time.Since(t0))
		if err != nil {
			return err
		}
		if err := decryptsToSum(p.sum, sum, p.cts[0], p.cts[1]); err != nil {
			return err
		}
	}
	if err := tr.write(cfg, "stats_pim"); err != nil {
		return err
	}
	res.Attempted += len(sums) + len(muls) + len(adds)
	res.set("hepim.sum64_ms", ms(p50(sums)), len(sums))
	res.set("hepim.mul_ms", ms(p50(muls)), len(muls))
	res.set("hepim.add_ms", ms(p50(adds)), len(adds))
	// Simulated figures of one Sum call; identical on every call (checked).
	res.set("pimsched.copy_in_ms", simSum.copyIn*1e3, len(sums))
	res.set("pimsched.kernel_ms", simSum.kernel*1e3, len(sums))
	res.set("pimsched.copy_out_ms", simSum.copyOut*1e3, len(sums))
	res.set("pimsched.serial_ms", simSum.serial*1e3, len(sums))
	res.set("pimsched.makespan_ms", simSum.makespan*1e3, len(sums))
	res.set("pimsched.overlap_gain", simSum.serial/simSum.makespan, len(sums))
	res.set("pimsched.launches", float64(simSum.launches), len(sums))
	res.set("pimsched.shards", float64(simSum.shards), len(sums))
	res.set("pimsched.bytes_in", float64(simSum.bytesIn), len(sums))
	res.set("pimsched.bytes_out", float64(simSum.bytesOut), len(sums))
	res.set("pimsched.retried", float64(simSum.retried), len(sums))
	res.set("pimsched.resharded", float64(simSum.resharded), len(sums))
	res.set("pim.sim_mean_ms", simSum.makespan*1e3, len(sums))
	res.set("pim.sim_mul_ms", simMul.makespan*1e3, len(muls))
	res.notef("simulated PIM figures (unit sim_ms, cycles) are modelled and unvalidated against UPMEM hardware: no error figure is given")
	return kernelTable(cfg, res)
}

// decryptsToSum checks an encrypted a+b slot by slot.
func decryptsToSum(ctx *hebfv.Context, sum, a, b *hebfv.Ciphertext) error {
	got, err := ctx.DecryptSlots(sum)
	if err != nil {
		return err
	}
	pa, err := ctx.DecryptSlots(a)
	if err != nil {
		return err
	}
	pb, err := ctx.DecryptSlots(b)
	if err != nil {
		return err
	}
	for i := range got {
		if got[i] != (pa[i]+pb[i])%ctx.PlaintextModulus() {
			return fmt.Errorf("pim add: slot %d is %d, want %d", i, got[i], (pa[i]+pb[i])%ctx.PlaintextModulus())
		}
	}
	return nil
}

// kernelTable times the DPU kernel drivers directly on their own
// simulated system with the workload's topology.
func kernelTable(cfg config, res *result) error {
	sysCfg := pim.DefaultConfig()
	sysCfg.NumDPUs = 4 * 64
	sys, err := pim.NewSystem(sysCfg)
	if err != nil {
		return err
	}
	sched, err := pimsched.New(sys, pimsched.Topology{Ranks: 4, DPUsPerRank: 64}, true)
	if err != nil {
		return err
	}
	par := cfg.shape.params()
	w, q := par.Q.W, par.Q.Q
	r := newRNG(cfg.seed, 17)
	// One ciphertext's worth of coefficients (2 polynomials) below q:
	// the top limb is cleared and q's top limb is not zero.
	vector := func(words int, width int) []uint32 {
		v := make([]uint32, words)
		for i := range v {
			if i%width != width-1 {
				v[i] = uint32(r.next())
			}
		}
		return v
	}
	a, b := vector(2*par.N*w, w), vector(2*par.N*w, w)
	vecs := make([][]uint32, cfg.shape.pimSumCts)
	for i := range vecs {
		vecs[i] = a
		if i%2 == 1 {
			vecs[i] = b
		}
	}
	var addRep, mulRep *pimsched.Report
	var kerr error
	check := func(rep *pimsched.Report, err error) *pimsched.Report {
		if err != nil && kerr == nil {
			kerr = err
		}
		return rep
	}
	res.timed(cfg, "kernels.vector_add_host_ms", 1e6, 1, nil, func() {
		_, rep, err := kernels.RunVectorAddSched(sched, a, b, w, q)
		addRep = check(rep, err)
	})
	res.timed(cfg, "kernels.vector_sum_host_ms", 1e6, 1, nil, func() {
		_, rep, err := kernels.RunVectorSumSched(sched, vecs, w, q)
		check(rep, err)
	})
	// The polynomial products of a PIM Mul run under the 256-bit lift
	// modulus; a small degree keeps the row short.
	liftQ := new(big.Int).Lsh(big.NewInt(1), 256)
	liftQ.Sub(liftQ, big.NewInt(189))
	const liftW, pairs = 8, 4
	n := cfg.shape.kernelN
	ma, mb := vector(pairs*n*liftW, liftW), vector(pairs*n*liftW, liftW)
	mulNs := res.timed(cfg, "kernels.poly_mul_host_ms", 1e6, 1, nil, func() {
		_, rep, err := kernels.RunVectorPolyMulSched(sched, ma, mb, n, liftW, limb32.FromBig(liftQ, liftW))
		mulRep = check(rep, err)
	})
	if kerr != nil {
		return kerr
	}
	res.set("kernels.vector_add_cycles", float64(addRep.KernelCycles), 1)
	res.set("kernels.poly_mul_cycles", float64(mulRep.KernelCycles), 1)
	// Host cost of simulating one critical-path DPU cycle of the
	// largest kernel here.
	res.set("pim.host_ns_per_sim_cycle", mulNs/float64(mulRep.KernelCycles), 1)
	return nil
}

// --- fixed-iteration tables ---

// timeRow calls run (batch times per sample) until the row's budget is
// spent, at least three samples after one warm call, and returns the
// median nanoseconds per call and the sample count. prep, when set,
// runs untimed before each sample — rows that need fresh operands (no
// cached NTT form) use it.
func timeRow(cfg config, batch int, prep, run func()) (float64, int) {
	if prep != nil {
		prep()
	}
	run()
	var samples []float64
	for start := time.Now(); len(samples) < 3 || time.Since(start) < cfg.shape.tableBudget; {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			run()
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return medianFloat(samples), len(samples)
}

// timed stores a timeRow under name, in units of div nanoseconds, and
// returns the nanoseconds.
func (r *result) timed(cfg config, name string, div float64, batch int, prep, run func()) float64 {
	ns, n := timeRow(cfg, batch, prep, run)
	r.set(name, ns/div, n)
	return ns
}

// facadeTable times single facade calls on fresh handles (decoded from
// bytes before each sample, as a served request's are), including the
// forcing of deferred results.
func facadeTable(cfg config, res *result) error {
	ctx, err := hebfv.New(append([]hebfv.Option{hebfv.WithSeed(cfg.seed), hebfv.WithRotations(1, 2, 4, 8)}, cfg.shape.host...)...)
	if err != nil {
		return err
	}
	defer ctx.Close()
	r := newRNG(cfg.seed, 19)
	const many = 8
	blobs := make([][]byte, 2*many)
	kept := make([]*hebfv.Ciphertext, 2*many)
	vals := r.values(ctx.Slots(), dotprodBound)
	for i := range blobs {
		if kept[i], err = ctx.EncryptSlots(r.values(ctx.Slots(), dotprodBound)); err != nil {
			return err
		}
		if blobs[i], err = kept[i].MarshalBinary(); err != nil {
			return err
		}
	}
	var ferr error
	fresh := make([]*hebfv.Ciphertext, len(blobs))
	decode := func() {
		release(fresh...)
		for i, blob := range blobs {
			if fresh[i], err = ctx.UnmarshalCiphertext(blob); err != nil && ferr == nil {
				ferr = err
			}
		}
	}
	one := func(ct *hebfv.Ciphertext, err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
		force(ct)
		release(ct)
	}
	all := func(cts []*hebfv.Ciphertext, err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
		for _, ct := range cts {
			force(ct)
		}
		release(cts...)
	}
	row := func(name string, per int, run func()) {
		res.timed(cfg, name, 1e3*float64(per), 1, decode, run)
	}
	row("hebfv.add_us", 1, func() { one(ctx.Add(fresh[0], fresh[1])) })
	row("hebfv.mul_us", 1, func() { one(ctx.Mul(fresh[0], fresh[1])) })
	row("hebfv.square_us", 1, func() { one(ctx.Square(fresh[0])) })
	row("hebfv.rotate_rows_us", 1, func() { one(ctx.RotateRows(fresh[0], 1)) })
	row("hebfv.inner_sum_us", 1, func() { one(ctx.InnerSum(fresh[0])) })
	row("hebfv.sum_us_per_ct", len(fresh), func() { one(ctx.Sum(fresh)) })
	row("hebfv.mul_many_us_per_ct", many, func() { all(ctx.MulMany(fresh[:many], fresh[many:])) })
	steps := []int{1, 2, 4, 8}
	row("hebfv.rotate_rows_many_us_per_step", len(steps), func() { all(ctx.RotateRowsMany(fresh[0], steps)) })
	row("hebfv.encrypt_slots_us", 1, func() { one(ctx.EncryptSlots(vals)) })
	row("hebfv.decrypt_slots_us", 1, func() {
		if _, err := ctx.DecryptSlots(kept[0]); err != nil && ferr == nil {
			ferr = err
		}
	})
	res.timed(cfg, "hebfv.export_keys_ms", 1e6, 1, nil, func() {
		if err := ctx.ExportKeysTo(io.Discard, false); err != nil && ferr == nil {
			ferr = err
		}
	})
	release(fresh...)
	if in := ctx.PoolStats().InUse; in != 0 {
		res.problem(fmt.Errorf("facade table left %d pooled backings in use", in))
	}
	return ferr
}

// engineTables times the public functions below the facade on the
// served shapes: internal/bfv, internal/dcrt, internal/ntt and
// internal/polypool. Operands are cloned before each sample where a
// cached NTT form would otherwise flatter the row.
func engineTables(cfg config, res *result) error {
	par := cfg.shape.params()
	src := sampling.NewSourceFromUint64(cfg.seed)
	kg := bfv.NewKeyGenerator(par, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	gk, err := kg.GenGaloisKey(sk, 3)
	if err != nil {
		return err
	}
	enc := bfv.NewEncryptor(par, pk, src)
	ev := bfv.NewEvaluator(par, rlk)
	dec := bfv.NewDecryptor(par, sk)
	ctA, err := enc.EncryptValue(3)
	if err != nil {
		return err
	}
	ctB, err := enc.EncryptValue(5)
	if err != nil {
		return err
	}
	var terr error
	note := func(err error) {
		if err != nil && terr == nil {
			terr = err
		}
	}
	usRow := func(name string, prep, run func()) float64 { return res.timed(cfg, name, 1e3, 1, prep, run) }

	// internal/bfv
	var a, b, c3 *bfv.Ciphertext
	cloneAB := func() { a, b = ctA.Clone(), ctB.Clone() }
	ct3, err := ev.MulNoRelin(ctA, ctB)
	if err != nil {
		return err
	}
	usRow("bfv.add_us", nil, func() { ev.Add(ctA, ctB) })
	usRow("bfv.mul_us", cloneAB, func() { _, err := ev.Mul(a, b); note(err) })
	usRow("bfv.mul_no_relin_us", cloneAB, func() { _, err := ev.MulNoRelin(a, b); note(err) })
	usRow("bfv.relinearize_us", func() { c3 = ct3.Clone() }, func() { _, err := ev.Relinearize(c3); note(err) })
	usRow("bfv.apply_galois_us", cloneAB, func() { _, err := ev.ApplyGalois(a, gk); note(err) })
	var hoisted *bfv.Hoisted
	usRow("bfv.hoist_us", func() {
		if hoisted != nil {
			hoisted.Release()
		}
		a = ctA.Clone()
	}, func() { hoisted, err = ev.Hoist(a); note(err) })
	if terr != nil {
		return terr
	}
	usRow("bfv.apply_galois_hoisted_us", nil, func() { _, err := ev.ApplyGaloisHoisted(hoisted, gk); note(err) })
	hoisted.Release()
	usRow("bfv.decrypt_us", nil, func() { dec.Decrypt(ctA) })
	var wire bytes.Buffer
	usRow("bfv.serialize_us", wire.Reset, func() { note(ctA.Serialize(&wire)) })
	blob := append([]byte(nil), wire.Bytes()...)
	pool := polypool.New(32 << 20)
	var decoded *bfv.Ciphertext
	usRow("bfv.read_ciphertext_backed_us", func() {
		if decoded != nil {
			for _, p := range decoded.Polys {
				pool.Put(p.C)
			}
		}
	}, func() { decoded, err = bfv.ReadCiphertextBacked(bytes.NewReader(blob), par, pool); note(err) })

	// internal/dcrt, on the context the evaluator uses for these
	// parameters (same bound: the wider of the tensor and key-switch
	// magnitudes).
	logN := bits.TrailingZeros(uint(par.N))
	qb := par.Q.Bits()
	keySwitch := qb + int(par.RelinBaseBits) + bits.Len(uint(par.RelinDigits())) + logN + 1
	dc, err := dcrt.GetContext(par.Q, par.N, max(2*qb+logN+1, keySwitch)+1)
	if err != nil {
		return err
	}
	if !dc.RNSNative() {
		return errors.New("engine table: the parameter set has no RNS-native double-CRT context")
	}
	p0, p1 := ctA.Polys[0], ctA.Polys[1]
	x, y := dc.ToRNSCentered(p0), dc.ToRNSCentered(p1)
	prod := dc.NewPoly()
	dc.MulNTT(prod, x, y)
	usRow("dcrt.to_rns_centered_us", nil, func() { dc.ToRNSCentered(p0) })
	canon := dc.ToRNS(p0)
	usRow("dcrt.from_rns_us", nil, func() { dc.FromRNS(canon) })
	sr := dc.ScaleRounder(par.T)
	usRow("dcrt.scale_round_residues_us", nil, func() { dc.PutScratch(sr.ScaleRoundResidues(prod)) })
	usRow("dcrt.digits_to_rns_us", nil, func() {
		for _, d := range dc.DigitsToRNS(p1, par.RelinBaseBits, par.RelinDigits()) {
			dc.PutScratch(d)
		}
	})
	dst := dc.NewPoly()
	usRow("dcrt.mul_ntt_us", nil, func() { dc.MulNTT(dst, x, y) })
	// A coefficient below q, held as residues, extends exactly from the
	// key-switch sub-basis to the full basis.
	subK := dc.SubBasisFor(keySwitch + 1)
	residues := dc.ToResidues(canon)
	usRow("dcrt.extend_residues_us", nil, func() { dc.ExtendResidues(residues, subK) })
	dc.PutScratch(residues)

	// The worker pool: one MulMany of 16 with one processor against all
	// of them. Concurrent served requests already fill the cores, so
	// this ratio should move the batched statistics and not serve_mixed.
	const batch = 16
	be := bfv.NewBatchEvaluator(par, rlk)
	as, bs := make([]*bfv.Ciphertext, batch), make([]*bfv.Ciphertext, batch)
	for i := range as {
		as[i], bs[i] = ctA.Clone(), ctB.Clone()
	}
	mulMany := func() { _, err := be.MulMany(as, bs); note(err) }
	procs := runtime.GOMAXPROCS(1)
	serial, _ := timeRow(cfg, 1, nil, mulMany)
	runtime.GOMAXPROCS(procs)
	parallel, n := timeRow(cfg, 1, nil, mulMany)
	res.set("dcrt.pool.mul_many_scaling", serial/parallel, n)

	// internal/ntt, on the first basis prime's table at this degree.
	tab := dc.Tabs[0]
	ring, n := tab.R, par.N
	nr := newRNG(cfg.seed, 23)
	vec := func(bound uint64) []uint64 { return nr.values(n, bound) }
	fwd, inv, pa, pb, pdst := vec(ring.Q), vec(ring.Q), vec(ring.Q), vec(ring.Q), make([]uint64, n)
	const digits = 3
	k0, k1, ds := make([][]uint64, digits), make([][]uint64, digits), make([][]uint64, digits)
	for d := range ds {
		k0[d], k1[d], ds[d] = vec(ring.Q), vec(ring.Q), vec(2*ring.Q)
	}
	acc0, acc1 := vec(ring.Q), vec(ring.Q)
	idx := dcrt.GaloisNTTIndices(n, 3)
	// The lazy transforms accept their own lazy outputs, so they self-feed.
	fwdNs := usRow("ntt.forward_lazy_us", nil, func() { tab.ForwardLazy(fwd) })
	res.set("ntt.forward_ns_per_butterfly", fwdNs/float64(n/2*logN), 1)
	usRow("ntt.inverse_lazy_us", nil, func() { tab.InverseLazy(inv) })
	pwNs := usRow("ntt.pointwise_mul_us", nil, func() { tab.PointwiseMul(pdst, pa, pb) })
	// Bytes computed from the array sizes (two reads, one write of n
	// words), not measured memory traffic.
	res.set("ntt.pointwise_gb_per_s", float64(3*8*n)/pwNs, 1)
	usRow("ntt.mul_add_pair128_us", nil, func() { ntt.MulAddPair128(ring, acc0, acc1, k0, k1, ds) })
	usRow("ntt.galois_acc_pair128_us", nil, func() { ntt.GaloisAccPair128(ring, acc0, acc1, k0, k1, ds, idx) })

	// internal/polypool
	words := par.N * par.Q.W
	pp := polypool.New(1 << 24)
	res.timed(cfg, "polypool.get_put_ns", 1, 1000, nil, func() { pp.Put(pp.Get(words)) })
	return terr
}
