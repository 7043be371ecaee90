package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/hebfv"
	"repro/hebfv/serve"
)

// workers is the closed-loop client count of the served workloads: two
// callers that each wait for their reply, one keep-alive connection
// each — no more client threads than the sandbox has cores.
const workers = 2

// tenant is one key-owning client reduced to what the load needs: its
// fingerprint, its evaluation-only key blob, its request bodies and the
// responses its own (secret-key-holding) context computed for them.
type tenant struct {
	id         [32]byte
	keyBlob    []byte
	onboardURL string
	evalURL    [numOps]string
	bodies     [numOps][][]byte // [op][pair]
	expected   [numOps][][]byte // [op][pair]
}

// newTenant generates keys and operands from the seed and evaluates
// every (op, pair) locally; the served plane must reproduce those bytes.
func newTenant(sh shape, seed uint64, ops []opKind, pairs int) (*tenant, error) {
	opts := append([]hebfv.Option{hebfv.WithSeed(seed), hebfv.WithRotations(1)}, sh.host...)
	ctx, err := hebfv.New(opts...)
	if err != nil {
		return nil, err
	}
	defer ctx.Close()
	t := &tenant{}
	if t.keyBlob, err = ctx.ExportKeys(false); err != nil {
		return nil, err
	}
	t.id = sha256.Sum256(t.keyBlob)

	vals := newRNG(seed, 7)
	cts := make([]*hebfv.Ciphertext, pairs)
	blobs := make([][]byte, pairs)
	for i := range cts {
		if cts[i], err = ctx.EncryptSlots(vals.values(ctx.Slots(), ctx.PlaintextModulus())); err != nil {
			return nil, err
		}
		if blobs[i], err = cts[i].MarshalBinary(); err != nil {
			return nil, err
		}
	}
	for _, op := range ops {
		for i := range cts {
			j := (i + 1) % pairs
			var out *hebfv.Ciphertext
			body := blobs[i]
			switch op {
			case opAdd:
				out, err = ctx.Add(cts[i], cts[j])
				body = append(append([]byte{}, blobs[i]...), blobs[j]...)
			case opMul:
				out, err = ctx.Mul(cts[i], cts[j])
				body = append(append([]byte{}, blobs[i]...), blobs[j]...)
			case opRotate:
				out, err = ctx.RotateRows(cts[i], 1)
			}
			if err != nil {
				return nil, err
			}
			want, err := out.MarshalBinary()
			if err != nil {
				return nil, err
			}
			t.bodies[op] = append(t.bodies[op], body)
			t.expected[op] = append(t.expected[op], want)
		}
	}
	return t, nil
}

// rig is a serve.Server mounted on a real loopback listener.
type rig struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{}
	tenants []*tenant
}

func startRig(opts serve.Options, tenants []*tenant) (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(opts)
	rg := &rig{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}), tenants: tenants}
	go func() {
		defer close(rg.served)
		rg.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	base := "http://" + ln.Addr().String()
	for _, t := range tenants {
		fp := hex.EncodeToString(t.id[:])
		t.onboardURL = base + "/v1/keysets?sha256=" + fp
		for op, name := range opNames {
			t.evalURL[op] = base + "/v1/eval/" + name + "?keyset=" + fp
		}
		t.evalURL[opRotate] += "&k=1"
	}
	return rg, nil
}

func (rg *rig) stop() {
	rg.hs.Close()
	<-rg.served
}

// onboardAll posts every tenant's key blob.
func (rg *rig) onboardAll() error {
	c := newClient()
	defer c.close()
	for i, t := range rg.tenants {
		status, body, err := c.post(t.onboardURL, t.keyBlob)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("onboarding tenant %d: status %d, %s, %v", i, status, body, err)
		}
	}
	return nil
}

// settled waits for the server's post-conditions after a load: no
// request in flight and every pooled backing returned. A handler's
// deferred releases run after the client has its reply, hence the wait.
func (rg *rig) settled() error {
	var inflight int
	var inUse int64
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		inflight, inUse = rg.srv.Stats().Inflight, rg.srv.Cache().PoolStats().InUse
		if inflight == 0 && inUse == 0 {
			return nil
		}
	}
	return fmt.Errorf("server did not settle: inflight=%d pool in_use=%d", inflight, inUse)
}

// client is one closed-loop caller: one keep-alive connection, one
// reused response buffer.
type client struct {
	hc  *http.Client
	tr  *http.Transport
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post returns the status and the body, which is valid until the next
// call.
func (c *client) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// load is what one closed-loop run observed. A refused (429/503) or
// mismatching operation is a failed one.
type load struct {
	lat        [][]time.Duration // successful operations, per class
	onboard    []time.Duration   // POST /v1/keysets alone (serve_churn)
	attempted  int
	failed     int
	refused    int
	mismatched int
	firstErr   error
	elapsed    time.Duration
	allocBytes uint64
}

func (l *load) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

func (l *load) ok() int { return l.attempted - l.failed }

// eval posts one evaluation and classifies the reply; unknown reports a
// 404 unknown_keyset, which serve_churn answers by onboarding.
func (l *load) eval(c *client, t *tenant, req request) (okay, unknown bool) {
	status, body, err := c.post(t.evalURL[req.op], t.bodies[req.op][req.pair])
	switch {
	case err != nil:
		l.fail(err)
	case status == http.StatusNotFound && bytes.Contains(body, []byte("unknown_keyset")):
		return false, true
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		l.refused++
		l.fail(fmt.Errorf("%s refused with status %d", opNames[req.op], status))
	case status != http.StatusOK:
		l.fail(fmt.Errorf("%s: status %d: %s", opNames[req.op], status, body))
	case !bytes.Equal(body, t.expected[req.op][req.pair]):
		l.mismatched++
		l.fail(fmt.Errorf("%s: response differs from the key owner's result", opNames[req.op]))
	default:
		return true, false
	}
	return false, false
}

// closedLoop runs `workers` callers for the window; step performs one
// operation and records it in the worker's own load. Allocation is the
// whole process's over the window: server, engine and client.
func closedLoop(window time.Duration, classes int, step func(worker int, c *client, l *load)) *load {
	parts := make([]*load, workers)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		parts[w] = &load{lat: make([][]time.Duration, classes)}
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for time.Now().Before(deadline) {
				step(w, c, parts[w])
			}
		}(w)
	}
	wg.Wait()
	total := &load{lat: make([][]time.Duration, classes), elapsed: time.Since(start)}
	runtime.ReadMemStats(&ms1)
	total.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for _, p := range parts {
		for i := range p.lat {
			total.lat[i] = append(total.lat[i], p.lat[i]...)
		}
		total.onboard = append(total.onboard, p.onboard...)
		total.attempted += p.attempted
		total.failed += p.failed
		total.refused += p.refused
		total.mismatched += p.mismatched
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
	}
	return total
}

// servedResult turns a closed-loop run into the end-to-end metrics;
// light and heavy are the latency classes the workload names so.
func servedResult(l *load, setupS float64, light, heavy int, rg *rig) (*result, error) {
	if l.ok() == 0 || len(l.lat[light]) == 0 || len(l.lat[heavy]) == 0 {
		return nil, fmt.Errorf("empty window: %d of %d operations succeeded (%v)", l.ok(), l.attempted, l.firstErr)
	}
	res := newResult()
	res.Attempted, res.Failed = l.attempted, l.failed
	res.set("setup_s", setupS, setupReps)
	res.set("ops_per_s", float64(l.ok())/l.elapsed.Seconds(), l.ok())
	res.set("light_p50_ms", ms(p50(l.lat[light])), len(l.lat[light]))
	res.set("heavy_p50_ms", ms(p50(l.lat[heavy])), len(l.lat[heavy]))
	res.set("alloc_kb_per_op", float64(l.allocBytes)/1024/float64(l.ok()), l.ok())
	res.notef("%d attempted, %d failed (%d refused, %d mismatched) in %.2fs", l.attempted, l.failed, l.refused, l.mismatched, l.elapsed.Seconds())
	if l.firstErr != nil {
		res.problem(l.firstErr)
	}
	if err := rg.settled(); err != nil {
		res.problem(err)
	}
	if n := rg.srv.Stats().Rejections; n != 0 {
		res.problem(fmt.Errorf("server counted %d rejections", n))
	}
	return res, nil
}

// --- serve_mixed ---

const mixedTenants, mixedPairs = 2, 4

func setupMixed(sh shape, seed uint64) (*rig, error) {
	tenants := make([]*tenant, mixedTenants)
	for i := range tenants {
		var err error
		if tenants[i], err = newTenant(sh, seed*1000+uint64(i), []opKind{opAdd, opMul, opRotate}, mixedPairs); err != nil {
			return nil, err
		}
	}
	rg, err := startRig(serve.Options{ContextOptions: sh.host}, tenants)
	if err != nil {
		return nil, err
	}
	if err := rg.onboardAll(); err != nil {
		rg.stop()
		return nil, err
	}
	return rg, nil
}

// mixedLoad drives the 2-tenant add/mul/rotate mix for the window.
func mixedLoad(rg *rig, seed uint64, window time.Duration) *load {
	gens := make([]*mixedGen, workers)
	for w := range gens {
		gens[w] = newMixedGen(seed, w, len(rg.tenants), mixedPairs)
	}
	return closedLoop(window, int(numOps), func(w int, c *client, l *load) {
		req := gens[w].next()
		t0 := time.Now()
		l.attempted++
		if okay, unknown := l.eval(c, rg.tenants[req.tenant], req); okay {
			l.lat[req.op] = append(l.lat[req.op], time.Since(t0))
		} else if unknown {
			l.fail(errors.New("onboarded tenant answered unknown_keyset"))
		}
	})
}

func runMixed(cfg config) (*result, error) {
	rg, setupS, err := timedSetup(func() (*rig, error) { return setupMixed(cfg.shape, cfg.seed) }, (*rig).stop)
	if err != nil {
		return nil, err
	}
	defer rg.stop()
	mixedLoad(rg, cfg.seed+1<<32, cfg.shape.warmup) // pool fill, NTT tables, connections
	l := mixedLoad(rg, cfg.seed, cfg.window)
	res, err := servedResult(l, setupS, int(opAdd), int(opMul), rg)
	if err != nil {
		return nil, err
	}
	res.notef("served p50: add %.3f ms, mul %.3f ms, rotate %.3f ms (n=%d/%d/%d)",
		ms(p50(l.lat[opAdd])), ms(p50(l.lat[opMul])), ms(p50(l.lat[opRotate])),
		len(l.lat[opAdd]), len(l.lat[opMul]), len(l.lat[opRotate]))
	return res, nil
}

// --- serve_churn ---

const (
	churnPairs    = 2
	churnResident = 2 // tenants the cache budget holds
	churnRounds   = 4 // onboard-and-retry rounds before an operation counts as failed
	classHit      = 0
	classMiss     = 1
)

func setupChurn(sh shape, seed uint64) (*rig, error) {
	tenants := make([]*tenant, sh.churnTenants)
	for i := range tenants {
		var err error
		if tenants[i], err = newTenant(sh, seed*1000+100+uint64(i), []opKind{opAdd}, churnPairs); err != nil {
			return nil, err
		}
	}
	// Room for churnResident blobs and half of another: the third insert evicts.
	budget := int64(len(tenants[0].keyBlob)) * (2*churnResident + 1) / 2
	return startRig(serve.Options{ContextOptions: sh.host, MaxCacheBytes: budget}, tenants)
}

// churnLoad: each operation is a served add for a drawn tenant,
// onboarding first whenever the server no longer knows the key set.
func churnLoad(rg *rig, seed uint64, window time.Duration) *load {
	gens := make([]*churnGen, workers)
	for w := range gens {
		gens[w] = newChurnGen(seed, w, len(rg.tenants), churnPairs)
	}
	return closedLoop(window, 2, func(w int, c *client, l *load) {
		req := gens[w].next()
		t := rg.tenants[req.tenant]
		t0 := time.Now()
		l.attempted++
		class := classHit
		for round := 0; ; round++ {
			okay, unknown := l.eval(c, t, req)
			if okay {
				l.lat[class] = append(l.lat[class], time.Since(t0))
			}
			if !unknown {
				return
			}
			// A 404 answered by a successful onboard and retry is a
			// protocol step, not a failure — unless it never ends.
			if round == churnRounds {
				l.fail(errors.New("tenant evicted again before every retry"))
				return
			}
			class = classMiss
			o0 := time.Now()
			status, body, err := c.post(t.onboardURL, t.keyBlob)
			if err != nil || status != http.StatusOK {
				l.fail(fmt.Errorf("onboarding: status %d, %s, %v", status, body, err))
				return
			}
			l.onboard = append(l.onboard, time.Since(o0))
		}
	})
}

func runChurn(cfg config) (*result, error) {
	rg, setupS, err := timedSetup(func() (*rig, error) { return setupChurn(cfg.shape, cfg.seed) }, (*rig).stop)
	if err != nil {
		return nil, err
	}
	defer rg.stop()
	churnLoad(rg, cfg.seed+1<<32, cfg.shape.warmup)
	before := rg.srv.Cache().Stats()
	l := churnLoad(rg, cfg.seed, cfg.window)
	after := rg.srv.Cache().Stats()
	res, err := servedResult(l, setupS, classHit, classMiss, rg)
	if err != nil {
		return nil, err
	}
	res.notef("cache: %d hits, %d misses, %d builds, %d evictions; onboard p50 %.3f ms (n=%d)",
		after.Hits-before.Hits, after.Misses-before.Misses, after.Builds-before.Builds,
		after.Evictions-before.Evictions, ms(p50(l.onboard)), len(l.onboard))
	if after.Evictions == before.Evictions {
		res.problem(errors.New("no eviction in the window: the cache's write path was not exercised"))
	}
	return res, nil
}
