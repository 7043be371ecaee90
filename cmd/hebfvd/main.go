// Command hebfvd serves the hebfv evaluation plane over HTTP: clients
// keep their secret keys, onboard evaluation-only key sets once, and
// submit ciphertext add/mul/rotate operations against them (the
// HE-as-a-service deployment model — see package repro/hebfv/serve for
// the protocol and error contract).
//
// Usage:
//
//	hebfvd                          # listen on :8443, n=4096 (109-bit), dcrt-native
//	hebfvd -addr :9000 -sec 54      # other presets: 27 (N=1024), 54 (N=2048), 109 (N=4096)
//	hebfvd -backend pim             # evaluate on the modeled-PIM backend
//	hebfvd -toy                     # insecure N=64 parameters, for smoke tests
//	hebfvd -cache-mb 64             # tenant key-set cache budget (LRU past it)
//	hebfvd -max-batch 32            # most ops in one coalesced batch
//	hebfvd -tenant-inflight 4 -total-inflight 64  # admission quotas (429 / 503)
//	hebfvd -pool-mb 32              # per-tenant backing-pool retention (0 = pooling off)
//
// The parameter preset must match the clients': a key-set blob exported
// at one ring degree does not restore at another (onboarding rejects it
// with a corrupt-blob error).
//
// SIGINT or SIGTERM stops accepting and drains in-flight evaluations.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/hebfv"
	"repro/hebfv/serve"
	"repro/internal/ntt"
)

// readHeaderTimeout closes a connection that has not delivered a whole
// request header in time, so a client that connects and goes quiet does
// not hold a goroutine and a descriptor forever. It bounds the header
// only: bodies are large streamed ciphertexts and key sets, and a
// whole-request read timeout would cut slow uploads. A variable only so
// the test can shorten it.
var readHeaderTimeout = 10 * time.Second

// shutdownGrace is how long in-flight requests get to finish once the
// server has been told to stop.
const shutdownGrace = 10 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], nil)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) { // -h already printed the usage
		fmt.Fprintln(os.Stderr, "hebfvd:", err)
		os.Exit(1)
	}
}

// run serves the evaluation plane configured by args until ctx is
// cancelled, then stops accepting and waits up to shutdownGrace for
// in-flight requests. ready, when non-nil, receives the bound address
// once the listener is up (an -addr with port 0 picks a free one).
func run(ctx context.Context, args []string, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("hebfvd", flag.ContinueOnError)
	addr := fs.String("addr", ":8443", "listen address")
	sec := fs.Int("sec", 109, "security preset: 27, 54 or 109 bits")
	toy := fs.Bool("toy", false, "insecure N=64 toy parameters (overrides -sec)")
	backend := fs.String("backend", hebfv.DefaultBackend,
		fmt.Sprintf("evaluation backend %v", hebfv.Backends()))
	cacheMB := fs.Int64("cache-mb", 256, "tenant key-set cache budget in MiB (0 = unbounded)")
	maxBatch := fs.Int("max-batch", 32, "most ops in one coalesced batch")
	tenantInflight := fs.Int("tenant-inflight", 4, "per-tenant concurrent evaluation quota (429 past it)")
	totalInflight := fs.Int("total-inflight", 64, "global concurrent evaluation quota (503 past it)")
	poolMB := fs.Int64("pool-mb", 32, "per-tenant ciphertext backing-pool retention in MiB (0 = pooling off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctxOpts := []hebfv.Option{
		hebfv.WithBackend(*backend),
		hebfv.WithPoolRetention(*poolMB << 20),
	}
	if *toy {
		ctxOpts = append(ctxOpts, hebfv.WithInsecureToyParameters())
	} else {
		ctxOpts = append(ctxOpts, hebfv.WithSecurityLevel(*sec))
	}
	// Tenant contexts are built from these options at onboarding; build
	// and drop one now (tens of milliseconds) so an unusable -backend or
	// -sec stops the server here instead of failing every onboard.
	probe, err := hebfv.New(ctxOpts...)
	if err != nil {
		return err
	}
	probe.Close()

	srv := serve.NewServer(serve.Options{
		ContextOptions: ctxOpts,
		MaxCacheBytes:  *cacheMB << 20,
		MaxBatch:       *maxBatch,
		TenantInflight: *tenantInflight,
		TotalInflight:  *totalInflight,
	})
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("hebfvd: serving on %s (backend=%s, vector=%s, quotas tenant=%d total=%d)",
		ln.Addr(), *backend, ntt.VectorMode(), *tenantInflight, *totalInflight)
	if note := ntt.EnvNote(); note != "" {
		log.Printf("hebfvd: %s", note)
	}
	if ready != nil {
		ready <- ln.Addr()
	}

	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err // Serve gave up on its own; nothing to drain
	case <-ctx.Done():
	}
	log.Printf("hebfvd: shutting down")
	grace, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownGrace)
	defer cancel()
	err = hs.Shutdown(grace)
	<-served // http.ErrServerClosed, as soon as Shutdown closed the listener
	return err
}
