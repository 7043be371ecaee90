package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/hebfv"
	"repro/hebfv/serve"
)

// patience bounds every wait in this file: long enough for a loaded CI
// box, short enough that a hang fails the test instead of the job.
const patience = 20 * time.Second

// serveToy starts run on a free loopback port with the toy parameters
// and returns its base URL, the cancel that begins its shutdown, and the
// channel run's result arrives on.
func serveToy(t *testing.T, args ...string) (base string, stop context.CancelFunc, done <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ready := make(chan net.Addr, 1)
	result := make(chan error, 1)
	go func() {
		result <- run(ctx, append([]string{"-toy", "-addr", "127.0.0.1:0"}, args...), ready)
	}()
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case err := <-result:
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(patience):
		t.Fatal("run never started listening")
	}
	return base, cancel, result
}

// wantCleanExit waits for run to return and fails on an error.
func wantCleanExit(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(patience):
		t.Fatal("run did not return after its context was cancelled")
	}
}

// tenant is a key-owning toy client with two encrypted operands, their
// wire forms, and its onboarded fingerprint.
type tenant struct {
	ctx          *hebfv.Context
	cta, ctb     *hebfv.Ciphertext
	blobA, blobB []byte
	keyset       string
}

func onboardTenant(t *testing.T, base string) *tenant {
	t.Helper()
	ctx, err := hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithSeed(42), hebfv.WithRotations(1))
	if err != nil {
		t.Fatal(err)
	}
	tn := &tenant{ctx: ctx}
	va := make([]uint64, ctx.Slots())
	vb := make([]uint64, ctx.Slots())
	for i := range va {
		va[i], vb[i] = uint64(i), uint64(2*i+1)
	}
	if tn.cta, err = ctx.EncryptSlots(va); err != nil {
		t.Fatal(err)
	}
	if tn.ctb, err = ctx.EncryptSlots(vb); err != nil {
		t.Fatal(err)
	}
	if tn.blobA, err = tn.cta.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if tn.blobB, err = tn.ctb.MarshalBinary(); err != nil {
		t.Fatal(err)
	}

	keys, err := ctx.ExportKeys(false)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/keysets", "application/octet-stream", bytes.NewReader(keys))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		KeySet string `json:"keyset"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("onboarding: HTTP %d (%v)", resp.StatusCode, err)
	}
	fp := ctx.KeySetHash()
	if want := fmt.Sprintf("%x", fp[:]); got.KeySet != want {
		t.Fatalf("server fingerprint %s, client computed %s", got.KeySet, want)
	}
	tn.keyset = got.KeySet
	return tn
}

// wantServed fails unless resp is a 200 whose body is byte-identical to
// the locally evaluated ciphertext.
func wantServed(t *testing.T, op string, resp *http.Response, local *hebfv.Ciphertext, localErr error) {
	t.Helper()
	if localErr != nil {
		t.Fatal(localErr)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d (%v): %s", op, resp.StatusCode, err, payload)
	}
	want, err := local.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, want) {
		t.Errorf("%s: served response is not bit-identical to local evaluation", op)
	}
}

func getStats(t *testing.T, base string) serve.ServerStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// awaitStats polls /v1/stats until ok accepts a snapshot, and returns
// it. The server publishes these states nowhere else, so a bounded poll
// is the event.
func awaitStats(t *testing.T, base, what string, ok func(serve.ServerStats) bool) serve.ServerStats {
	t.Helper()
	deadline := time.Now().Add(patience)
	for {
		st := getStats(t, base)
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s; last stats %+v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServedRoundTrip is the check of the binary's own wiring — flags to
// options, listener, mux: a toy server on a free port onboards a key
// set, serves add, mul and rotate byte-for-byte equal to local
// evaluation, settles with no pooled handle or admission slot held, and
// exits cleanly when its context is cancelled.
func TestServedRoundTrip(t *testing.T) {
	base, stop, done := serveToy(t)
	tn := onboardTenant(t, base)
	pair := append(append([]byte{}, tn.blobA...), tn.blobB...)

	post := func(op, extra string, body []byte) *http.Response {
		url := fmt.Sprintf("%s/v1/eval/%s?keyset=%s%s", base, op, tn.keyset, extra)
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	sum, err := tn.ctx.Add(tn.cta, tn.ctb)
	wantServed(t, "add", post("add", "", pair), sum, err)
	prod, err := tn.ctx.Mul(tn.cta, tn.ctb)
	wantServed(t, "mul", post("mul", "", pair), prod, err)
	rot, err := tn.ctx.RotateRows(tn.cta, 1)
	wantServed(t, "rotate", post("rotate", "&k=1", tn.blobA), rot, err)

	// The handler releases its handles after the last response byte, so
	// the client can get here first.
	st := awaitStats(t, base, "a settled server", func(st serve.ServerStats) bool {
		return st.Pool.InUse == 0 && st.Inflight == 0
	})
	if st.Requests != 3 || st.Pool.Gets == 0 {
		t.Errorf("stats after three evaluations: %+v", st)
	}

	stop()
	wantCleanExit(t, done)
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still answers after run returned")
	}
}

// TestShutdownDrainsInflightRequest cancels the server's context while
// an evaluation is admitted and half uploaded: the listener closes, the
// request still completes with the right bytes, and run returns nil.
func TestShutdownDrainsInflightRequest(t *testing.T) {
	base, stop, done := serveToy(t)
	tn := onboardTenant(t, base)

	body, upload := io.Pipe()
	type reply struct {
		resp *http.Response
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Post(base+"/v1/eval/add?keyset="+tn.keyset, "application/octet-stream", body)
		replied <- reply{resp, err}
	}()
	if _, err := upload.Write(tn.blobA); err != nil {
		t.Fatal(err)
	}
	awaitStats(t, base, "the request in flight", func(st serve.ServerStats) bool { return st.Inflight == 1 })

	stop()
	// Shutdown closes the listener first; once a dial is refused the
	// server is draining and the half-sent request is all it has left.
	for deadline := time.Now().Add(patience); ; {
		conn, err := net.Dial("tcp", base[len("http://"):])
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after cancel")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("run returned (%v) with a request still in flight", err)
	default:
	}

	if _, err := upload.Write(tn.blobB); err != nil {
		t.Fatal(err)
	}
	upload.Close()
	select {
	case r := <-replied:
		if r.err != nil {
			t.Fatalf("in-flight request failed during shutdown: %v", r.err)
		}
		sum, err := tn.ctx.Add(tn.cta, tn.ctb)
		wantServed(t, "add", r.resp, sum, err)
	case <-time.After(patience):
		t.Fatal("in-flight request never completed")
	}
	wantCleanExit(t, done)
}

// TestSilentConnectionIsClosed: a client that connects and never sends
// a request line is hung up on after readHeaderTimeout instead of
// holding a goroutine and a descriptor for good.
func TestSilentConnectionIsClosed(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 50 * time.Millisecond
	base, stop, done := serveToy(t)

	conn, err := net.Dial("tcp", base[len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(patience))
	if n, err := conn.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server kept a silent connection open for %v", patience)
	} else if err == nil {
		t.Fatalf("server sent %d unsolicited byte(s)", n)
	}

	stop()
	wantCleanExit(t, done)
}

// TestBadConfigurationNeverListens: an unknown backend or security
// level is an error from run before any socket is bound, so a
// deployment script still passing -backend auto stops before listening.
func TestBadConfigurationNeverListens(t *testing.T) {
	// Already cancelled, so a run that does listen comes straight back.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-backend", "abacus"},
		{"-backend", "auto"},
		{"-sec", "128"},
	} {
		ready := make(chan net.Addr, 1)
		err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), ready)
		if err == nil {
			t.Errorf("%v: run returned nil", args)
		}
		select {
		case addr := <-ready:
			t.Errorf("%v: listened on %v", args, addr)
		default:
		}
	}
}
