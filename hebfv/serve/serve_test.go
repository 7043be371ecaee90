package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/hebfv"
)

// newClient builds a key-owning toy client context with the rotation
// key for step 1 derived (so its evaluation-only export serves rotate
// requests).
func newClient(t *testing.T, seed uint64) *hebfv.Context {
	t.Helper()
	ctx, err := hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithSeed(seed), hebfv.WithRotations(1))
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// newTestServer starts a toy-parameter server. When the test ends, every
// handle its requests made — operands and results, failed and cancelled
// requests included — must be back in the resident tenants' pools.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.ContextOptions = append(opts.ContextOptions, hebfv.WithInsecureToyParameters())
	s := NewServer(opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		waitFor(t, "every pooled handle released", func() bool { return s.Stats().Pool.InUse == 0 })
	})
	return s, hs
}

// onboard posts the client's evaluation-only key set and returns the
// fingerprint in request form.
func onboard(t *testing.T, base string, ctx *hebfv.Context, hint bool) string {
	t.Helper()
	blob, err := ctx.ExportKeys(false)
	if err != nil {
		t.Fatal(err)
	}
	fp := ctx.KeySetHash()
	url := base + "/v1/keysets"
	if hint {
		url = fmt.Sprintf("%s?sha256=%x", url, fp[:])
	}
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("onboarding: HTTP %d: %s", resp.StatusCode, body)
	}
	var got struct {
		KeySet string `json:"keyset"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("onboarding response %q: %v", body, err)
	}
	if want := fmt.Sprintf("%x", fp[:]); got.KeySet != want {
		t.Fatalf("server fingerprint %s, client computed %s", got.KeySet, want)
	}
	return got.KeySet
}

func evalReq(t *testing.T, base, op, fp string, extra string, body []byte) *http.Response {
	t.Helper()
	url := fmt.Sprintf("%s/v1/eval/%s?keyset=%s%s", base, op, fp, extra)
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// errCode decodes the typed error body.
func errCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var e struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body: %v", err)
	}
	return e.Code
}

// waitFor polls ok until it holds — for states the code under test
// publishes nowhere but in its stats — and fails the test after 10 s.
func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s", what)
		}
	}
}

// TestServeEndToEnd runs the full deployment loop: onboard, evaluate
// add/mul/rotate over HTTP, decrypt locally — and pins the responses
// byte-identical to local evaluation (coalesced batches are scheduling,
// not approximation).
func TestServeEndToEnd(t *testing.T) {
	t.Run("pooled", func(t *testing.T) { serveEndToEnd(t) })
	t.Run("retention-off", func(t *testing.T) { serveEndToEnd(t, hebfv.WithPoolRetention(0)) })
}

func serveEndToEnd(t *testing.T, opts ...hebfv.Option) {
	s, hs := newTestServer(t, Options{ContextOptions: opts})
	ctx := newClient(t, 42)
	fp := onboard(t, hs.URL, ctx, true)

	va := make([]uint64, ctx.Slots())
	vb := make([]uint64, ctx.Slots())
	for i := range va {
		va[i], vb[i] = uint64(i), uint64(2*i+1)
	}
	cta, err := ctx.EncryptSlots(va)
	if err != nil {
		t.Fatal(err)
	}
	ctb, err := ctx.EncryptSlots(vb)
	if err != nil {
		t.Fatal(err)
	}
	blobA, _ := cta.MarshalBinary()
	blobB, _ := ctb.MarshalBinary()
	pair := append(append([]byte{}, blobA...), blobB...)

	row := ctx.RowSlots()
	mod := ctx.PlaintextModulus()
	expect := func(op string) ([]uint64, *hebfv.Ciphertext) {
		switch op {
		case "add":
			want := make([]uint64, len(va))
			for i := range want {
				want[i] = (va[i] + vb[i]) % mod
			}
			local, err := ctx.Add(cta, ctb)
			if err != nil {
				t.Fatal(err)
			}
			return want, local
		case "mul":
			want := make([]uint64, len(va))
			for i := range want {
				want[i] = va[i] * vb[i] % mod
			}
			local, err := ctx.Mul(cta, ctb)
			if err != nil {
				t.Fatal(err)
			}
			return want, local
		default: // rotate by 1: slot (r, c) <- slot (r, (c+1) mod row)
			want := make([]uint64, len(va))
			for r := 0; r < 2; r++ {
				for c := 0; c < row; c++ {
					want[r*row+c] = va[r*row+(c+1)%row]
				}
			}
			local, err := ctx.RotateRows(cta, 1)
			if err != nil {
				t.Fatal(err)
			}
			return want, local
		}
	}

	for _, op := range []string{"add", "mul", "rotate"} {
		body, extra := pair, ""
		if op == "rotate" {
			body, extra = blobA, "&k=1"
		}
		resp := evalReq(t, hs.URL, op, fp, extra, body)
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d (%v): %s", op, resp.StatusCode, err, payload)
		}
		if cl := resp.ContentLength; cl != int64(len(payload)) {
			t.Errorf("%s: Content-Length %d, body %d bytes", op, cl, len(payload))
		}
		want, local := expect(op)
		localBlob, err := local.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, localBlob) {
			t.Errorf("%s: served response is not bit-identical to local evaluation", op)
		}
		out, err := ctx.UnmarshalCiphertext(payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ctx.DecryptSlots(out)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: slot %d = %d, want %d", op, i, got[i], want[i])
			}
		}
	}

	// Auto-release: the server recycles every request/response handle
	// once the response is flushed, so the backing pool is used and
	// balanced. The handler's deferred release may still be running
	// when the client sees the last byte, hence the poll.
	waitFor(t, "every pooled handle released", func() bool { return s.Stats().Pool.InUse == 0 })
	if s.Stats().Pool.Gets == 0 {
		t.Fatal("server backing pool was never used")
	}
}

// TestServeTypedRejections pins the error contract: corrupt blobs 400,
// unknown fingerprints 404, semantically impossible requests (a
// rotation step with no Galois key on an evaluation-only context) 422 —
// each with its machine-readable code — and the server keeps serving
// valid requests afterwards.
func TestServeTypedRejections(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	ctx := newClient(t, 7)
	fp := onboard(t, hs.URL, ctx, false)
	ct, err := ctx.EncryptValue(5)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := ct.MarshalBinary()
	pair := append(append([]byte{}, blob...), blob...)

	// Corrupt body: flip a byte inside the header region.
	bad := append([]byte{}, pair...)
	bad[2] ^= 0xFF
	if resp := evalReq(t, hs.URL, "add", fp, "", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt blob: HTTP %d, want 400", resp.StatusCode)
	} else if code := errCode(t, resp); code != "corrupt_blob" {
		t.Fatalf("corrupt blob code %q", code)
	}
	// Truncated body.
	if resp := evalReq(t, hs.URL, "add", fp, "", pair[:len(pair)/2]); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated blob: HTTP %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// Foreign fingerprint: never onboarded.
	foreign := newClient(t, 8)
	ffp := fmt.Sprintf("%x", foreign.KeySetHash())
	if resp := evalReq(t, hs.URL, "add", ffp, "", pair); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key set: HTTP %d, want 404", resp.StatusCode)
	} else if code := errCode(t, resp); code != "unknown_keyset" {
		t.Fatalf("unknown key set code %q", code)
	}
	// Rotation step with no exported Galois key: the evaluation-only
	// server context cannot derive it — typed 422.
	if resp := evalReq(t, hs.URL, "rotate", fp, "&k=3", blob); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("underivable rotation: HTTP %d, want 422", resp.StatusCode)
	} else if code := errCode(t, resp); code != "no_secret_key" {
		t.Fatalf("underivable rotation code %q", code)
	}
	// A key set containing the secret key is refused at onboarding.
	skBlob, err := ctx.ExportKeys(true)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/keysets", "application/octet-stream", bytes.NewReader(skBlob))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("secret-key onboarding: HTTP %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// The rejections poisoned nothing: a valid request still round-trips.
	resp2 := evalReq(t, hs.URL, "add", fp, "", pair)
	payload, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("valid request after rejections: HTTP %d (%v)", resp2.StatusCode, err)
	}
	out, err := ctx.UnmarshalCiphertext(payload)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ctx.DecryptValue(out); err != nil || v != 10 {
		t.Fatalf("decrypted %d (%v), want 10", v, err)
	}
}

// TestServeQuota429 pins the backpressure contract: with a per-tenant
// quota of 1, a request whose upload is paused mid-record holds the
// tenant's slot, so a concurrent burst sees typed 429s; the held request
// still completes, and the server serves normally afterwards (no pool
// poisoning).
func TestServeQuota429(t *testing.T) {
	s, hs := newTestServer(t, Options{TenantInflight: 1})
	ctx := newClient(t, 11)
	fp := onboard(t, hs.URL, ctx, false)
	ct, err := ctx.EncryptValue(3)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := ct.MarshalBinary()
	pair := append(append([]byte{}, blob...), blob...)
	url := hs.URL + "/v1/eval/add?keyset=" + fp

	// Admitted with one operand of two uploaded, the held request keeps
	// the slot until the rest of its body arrives.
	body, upload := io.Pipe()
	defer upload.Close() // a failing test must not leave the handler waiting for the body
	held := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(url, "application/octet-stream", body)
		if err != nil {
			t.Error(err)
		}
		held <- resp
	}()
	if _, err := upload.Write(blob); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the held request admitted", func() bool { return s.Stats().Inflight == 1 })

	const burst = 4
	codes := make(chan string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(pair))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var e struct {
				Code string `json:"code"`
			}
			json.NewDecoder(resp.Body).Decode(&e)
			codes <- fmt.Sprintf("%d %s", resp.StatusCode, e.Code)
		}()
	}
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != "429 tenant_busy" {
			t.Errorf("burst request behind a held slot: %s, want 429 tenant_busy", c)
		}
	}

	if _, err := upload.Write(blob); err != nil {
		t.Fatal(err)
	}
	upload.Close()
	wantSix := func(what string, resp *http.Response) {
		t.Helper()
		if resp == nil {
			t.FailNow() // the held POST already reported its error
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d (%v): %s", what, resp.StatusCode, err, payload)
		}
		out, err := ctx.UnmarshalCiphertext(payload)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := ctx.DecryptValue(out); err != nil || v != 6 {
			t.Fatalf("%s: decrypted %d (%v), want 6", what, v, err)
		}
	}
	wantSix("held request", <-held)
	// Quota slot released: a sequential request succeeds.
	wantSix("request after the burst", evalReq(t, hs.URL, "add", fp, "", pair))
}

// TestCacheEvictionCloses pins the cache lifecycle: LRU eviction under
// the byte budget closes unpinned contexts immediately, defers closing
// pinned ones to the last release, and evicted fingerprints turn into
// typed misses.
func TestCacheEvictionCloses(t *testing.T) {
	cache := NewContextCache(100)
	ids := make([][32]byte, 3)
	ctxs := make([]*hebfv.Context, 3)
	clients := make([]*hebfv.Context, 3)
	for i := range ids {
		client := newClient(t, uint64(20+i))
		clients[i] = client
		blob, err := client.ExportKeys(false)
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i], err = hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithKeySet(blob))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = client.KeySetHash()
	}
	if !cache.Add(ids[0], ctxs[0], 80) {
		t.Fatal("first Add rejected")
	}
	// Second insert blows the budget: entry 0 (LRU) evicts, refs 0 → closed.
	cache.Add(ids[1], ctxs[1], 80)
	if _, _, err := cache.Acquire(ids[0]); !errors.Is(err, ErrUnknownKeySet) {
		t.Fatalf("evicted entry Acquire: %v, want ErrUnknownKeySet", err)
	}
	if err := ctxs[0].ExportKeysTo(io.Discard, false); !errors.Is(err, hebfv.ErrContextClosed) {
		t.Fatalf("evicted unpinned context not closed: %v", err)
	}
	// Pin entry 1, then evict it: the close defers to the release.
	pinned, release, err := cache.Acquire(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	cache.Add(ids[2], ctxs[2], 80)
	if _, _, err := cache.Acquire(ids[1]); !errors.Is(err, ErrUnknownKeySet) {
		t.Fatalf("doomed entry still acquirable: %v", err)
	}
	if err := pinned.ExportKeysTo(io.Discard, false); err != nil {
		t.Fatalf("doomed-but-pinned context closed early: %v", err)
	}
	// Pooled decode against the doomed-but-pinned context: the handle
	// must return its backings before the deferred Close drains the
	// pool, leaving the evicted context's leak balance at zero.
	ct, err := clients[1].EncryptSlots([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h, err := pinned.ReadCiphertext(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	release()
	if err := pinned.ExportKeysTo(io.Discard, false); !errors.Is(err, hebfv.ErrContextClosed) {
		t.Fatalf("doomed context not closed at last release: %v", err)
	}
	if ps := pinned.PoolStats(); ps.InUse != 0 || ps.Gets != ps.Puts || ps.RetainedBytes != 0 {
		t.Fatalf("evicted context pool unbalanced after close: %+v", ps)
	}
	if st := cache.Stats(); st.Evictions != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v; want 2 evictions, 1 entry", st)
	}
}

// TestCacheSingleflight pins the construction contract: concurrent
// onboards of one fingerprint run the build exactly once.
func TestCacheSingleflight(t *testing.T) {
	client := newClient(t, 33)
	blob, err := client.ExportKeys(false)
	if err != nil {
		t.Fatal(err)
	}
	id := client.KeySetHash()
	cache := NewContextCache(0)
	var builds sync.Map
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, release, _, err := cache.AcquireOrBuild(id, func() (*hebfv.Context, int64, error) {
				builds.Store(i, true)
				time.Sleep(20 * time.Millisecond) // hold the flight open for the racers
				ctx, err := hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithKeySet(blob))
				return ctx, int64(len(blob)), err
			})
			if err != nil {
				t.Error(err)
				return
			}
			release()
		}(i)
	}
	wg.Wait()
	count := 0
	builds.Range(func(_, _ any) bool { count++; return true })
	if count != 1 {
		t.Fatalf("%d builds ran for one fingerprint; want 1 (singleflight)", count)
	}
	if st := cache.Stats(); st.Builds != 1 {
		t.Fatalf("stats count %d builds; want 1", st.Builds)
	}
}

// encryptValues encrypts 10, 11, … under ctx, one ciphertext each.
func encryptValues(t *testing.T, ctx *hebfv.Context, n int) []*hebfv.Ciphertext {
	t.Helper()
	cts := make([]*hebfv.Ciphertext, n)
	for i := range cts {
		var err error
		if cts[i], err = ctx.EncryptValue(uint64(10 + i)); err != nil {
			t.Fatal(err)
		}
	}
	return cts
}

// addOnes submits cts[i] + one for every i in [lo, hi), each on its own
// goroutine, and records the decrypted sum in results[i]. Wait on the
// returned group.
func addOnes(t *testing.T, co *Coalescer, ctx *hebfv.Context, cts []*hebfv.Ciphertext, one *hebfv.Ciphertext, results []uint64, lo, hi int) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := lo; i < hi; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := co.Add(ctx, cts[i], one)
			if err == nil {
				results[i], err = ctx.DecryptValue(out)
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	return &wg
}

// wantSlots fails unless every waiter got its own operand plus one.
func wantSlots(t *testing.T, results []uint64) {
	t.Helper()
	for i, v := range results {
		if v != uint64(11+i) {
			t.Errorf("waiter %d got %d, want %d (slot mix-up?)", i, v, 11+i)
		}
	}
}

// TestCoalescerBatching pins the batching semantics under free-running
// concurrency: however the submissions interleave with the running
// batches, every waiter gets its own slot's result, every op is counted
// once and no batch exceeds the cap.
func TestCoalescerBatching(t *testing.T) {
	ctx := newClient(t, 44)
	const k, maxBatch = 16, 4
	co := NewCoalescer(maxBatch)
	cts := encryptValues(t, ctx, k)
	one, err := ctx.EncryptValue(1)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]uint64, k)
	addOnes(t, co, ctx, cts, one, results, 0, k).Wait()
	wantSlots(t, results)
	st := co.Stats()
	if st.Ops != k || st.Batches < k/maxBatch || st.Batches > k || st.MaxBatch > maxBatch {
		t.Fatalf("stats %+v for %d ops capped at %d a batch", st, k, maxBatch)
	}
}

// TestCoalescerLoneRequestDoesNotWait: a request with no batch running
// ahead of it runs at once — sequential adds through the default
// server's coalescer cost their evaluation and nothing more.
func TestCoalescerLoneRequestDoesNotWait(t *testing.T) {
	co := NewServer(Options{}).Coalescer()
	ctx := newClient(t, 45)
	a, err := ctx.EncryptValue(2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := co.Add(ctx, a, a); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took >= 20*time.Millisecond {
		t.Fatalf("%d sequential toy adds took %v; a lone request must not wait", n, took)
	}
	if st := co.Stats(); st.Ops != n || st.Batches != n {
		t.Fatalf("stats %+v; want %d batches of one", st, n)
	}
}

// TestCoalescerBatchesUnderContention pins natural batching: ops that
// arrive while their group's batch runs queue, and run as the next
// batch — exactly one, or batches of at most MaxBatch — as soon as it
// finishes, each waiter reading its own slot. The first batch is held
// open through the eval hook, so the schedule is deterministic.
func TestCoalescerBatchesUnderContention(t *testing.T) {
	ctx := newClient(t, 46)
	const queued = 15
	cts := encryptValues(t, ctx, 1+queued)
	one, err := ctx.EncryptValue(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		maxBatch int
		sizes    []int
	}{
		{32, []int{1, 15}},
		{4, []int{1, 4, 4, 4, 3}},
	} {
		co := NewCoalescer(tc.maxBatch)
		entered, release := make(chan struct{}), make(chan struct{})
		var sizes []int // one group's batches run one at a time
		co.eval = func(bt *batch) {
			sizes = append(sizes, len(bt.as))
			if len(sizes) == 1 {
				close(entered)
				<-release
			}
			evaluate(bt)
		}
		results := make([]uint64, 1+queued)
		first := addOnes(t, co, ctx, cts, one, results, 0, 1)
		<-entered
		others := addOnes(t, co, ctx, cts, one, results, 1, 1+queued)
		// Ops counts a submission in the same critical section that
		// queues it.
		waitFor(t, "every op queued", func() bool { return co.Stats().Ops == 1+queued })
		close(release)
		first.Wait()
		others.Wait()

		wantSlots(t, results)
		if fmt.Sprint(sizes) != fmt.Sprint(tc.sizes) {
			t.Errorf("MaxBatch %d: batch sizes %v, want %v", tc.maxBatch, sizes, tc.sizes)
		}
		if st := co.Stats(); st.Batches != int64(len(tc.sizes)) || st.MaxBatch != tc.sizes[1] {
			t.Errorf("MaxBatch %d: stats %+v", tc.maxBatch, st)
		}
	}
}

// TestStatsJSONKeys pins the /v1/stats schema: every key path of the
// JSON object an operator's dashboard reads, nested objects included.
// The pool block is hebfv.PoolStats, itself polypool.Stats; renaming a
// field tag there changes this list.
func TestStatsJSONKeys(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			got = append(got, prefix+k)
			if sub, ok := v.(map[string]any); ok {
				walk(prefix+k+".", sub)
			}
		}
	}
	walk("", doc)
	sort.Strings(got)
	want := []string{
		"cache", "cache.builds", "cache.bytes", "cache.entries", "cache.evictions",
		"cache.hits", "cache.max_bytes", "cache.misses",
		"coalescer", "coalescer.avg_batch", "coalescer.batches",
		"coalescer.max_batch_observed", "coalescer.ops",
		"inflight",
		"pool", "pool.dropped", "pool.gets", "pool.hits", "pool.in_use",
		"pool.misses", "pool.puts", "pool.retained_bytes",
		"rejections", "requests",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("/v1/stats keys:\n got %q\nwant %q", got, want)
	}
}
