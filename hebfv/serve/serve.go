// Package serve is the served evaluation plane over the hebfv facade:
// the reusable pieces of an HE-as-a-service deployment, where clients
// keep the secret key, onboard their public evaluation keys once, and
// submit ciphertext operations over HTTP. The hebfvd command wires this
// package to a listener; `go run ./benchmark` (serve_mixed, serve_churn)
// measures it.
//
// Three pieces compose the plane:
//
//   - ContextCache: evaluation-only Contexts keyed by key-set
//     fingerprint (LRU under a byte budget, singleflight construction,
//     eviction deferred past in-flight work).
//   - Coalescer: each tenant's concurrent single ops gathered into the
//     facade's batch pipelines (AddMany, MulMany, RotateRowsEach) —
//     requests arriving while a batch runs form the next one, a lone
//     request runs at once — batch efficiency without changing
//     results; everything stays bit-identical.
//   - Server: the HTTP surface — streaming ciphertext bodies in and
//     out (O(chunk) memory per transfer, exact Content-Length from
//     MarshaledBytes), per-tenant and global admission quotas, and the
//     error taxonomy mapped onto typed HTTP statuses.
//
// # Protocol
//
//	POST /v1/keysets[?sha256=<hex>]   body: ExportKeysTo(w, false) blob
//	  → 200 {"keyset": "<hex>", "cached": bool}
//	POST /v1/eval/add?keyset=<hex>    body: two ciphertext records
//	POST /v1/eval/mul?keyset=<hex>    body: two ciphertext records
//	POST /v1/eval/rotate?keyset=<hex>&k=<steps>  body: one record
//	  → 200 application/octet-stream: one ciphertext record
//	GET  /v1/stats                    → 200 ServerStats JSON
//	GET  /healthz                     → 200
//
// Failures map to statuses by sentinel (see HTTPStatus): unknown
// fingerprint 404, per-tenant quota 429, global quota 503, corrupt
// blob 400, semantic rejections (missing Galois key, no batching) 422,
// backend failure 500. Error bodies are JSON with the sentinel's code
// in "code".
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/hebfv"
)

// Serving sentinels. Like the hebfv taxonomy, every admission or
// routing failure wraps one of these, and HTTPStatus maps them (plus
// the hebfv sentinels) to statuses.
var (
	// ErrUnknownKeySet: the request's key-set fingerprint has no
	// resident context — the tenant never onboarded, or was evicted.
	ErrUnknownKeySet = errors.New("serve: unknown key set")
	// ErrTenantBusy: the tenant's in-flight quota is exhausted; retry
	// after a response frees a slot (HTTP 429).
	ErrTenantBusy = errors.New("serve: tenant quota exhausted")
	// ErrOverloaded: the server's global in-flight quota is exhausted
	// (HTTP 503).
	ErrOverloaded = errors.New("serve: server overloaded")
)

// Options configures a Server.
type Options struct {
	// ContextOptions are the base options every restored tenant context
	// is built with (parameter preset, backend). The key material comes
	// from the onboarded blob; do not include WithKeySet/WithKeySetFrom.
	ContextOptions []hebfv.Option
	// MaxCacheBytes bounds the resident tenant key material (0 =
	// unbounded). Sizing uses the onboarded blob length — the key
	// material dominates a context's footprint.
	MaxCacheBytes int64
	// MaxBatch caps the ops in one coalesced batch (default 32).
	MaxBatch int
	// TenantInflight is the per-tenant concurrent evaluation quota
	// (default 4; exceeding it is a 429).
	TenantInflight int
	// TotalInflight is the global concurrent evaluation quota (default
	// 64; exceeding it is a 503).
	TotalInflight int
}

// Server is the HTTP evaluation plane: admission control in front of a
// ContextCache and a Coalescer. Create one with NewServer and mount
// Handler on any mux or listener.
type Server struct {
	opts  Options
	cache *ContextCache
	coal  *Coalescer

	mu         sync.Mutex
	tenantLoad map[[32]byte]int
	totalLoad  int

	requests, rejections int64
}

// NewServer builds the serving plane from opts (zero values take the
// documented defaults).
func NewServer(opts Options) *Server {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 32
	}
	if opts.TenantInflight <= 0 {
		opts.TenantInflight = 4
	}
	if opts.TotalInflight <= 0 {
		opts.TotalInflight = 64
	}
	return &Server{
		opts:       opts,
		cache:      NewContextCache(opts.MaxCacheBytes),
		coal:       NewCoalescer(opts.MaxBatch),
		tenantLoad: map[[32]byte]int{},
	}
}

// Cache exposes the tenant-context cache (stats, tests).
func (s *Server) Cache() *ContextCache { return s.cache }

// Coalescer exposes the batching layer (stats, tests).
func (s *Server) Coalescer() *Coalescer { return s.coal }

// Handler returns the HTTP surface documented in the package comment.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/keysets", s.handleOnboard)
	mux.HandleFunc("POST /v1/eval/{op}", s.handleEval)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return mux
}

// HTTPStatus maps a serving or hebfv error to its HTTP status: the
// error contract of the evaluation plane.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrUnknownKeySet):
		return http.StatusNotFound // 404: onboard the key set first
	case errors.Is(err, ErrTenantBusy):
		return http.StatusTooManyRequests // 429: per-tenant backpressure
	case errors.Is(err, ErrOverloaded), errors.Is(err, hebfv.ErrContextClosed):
		return http.StatusServiceUnavailable // 503: retry elsewhere/later
	case errors.Is(err, hebfv.ErrCorruptBlob):
		return http.StatusBadRequest // 400: malformed wire bytes
	case errors.Is(err, hebfv.ErrNoSecretKey), errors.Is(err, hebfv.ErrNoBatching),
		errors.Is(err, hebfv.ErrNilHandle), errors.Is(err, hebfv.ErrForeignHandle):
		return http.StatusUnprocessableEntity // 422: well-formed, semantically rejected
	case errors.Is(err, hebfv.ErrBackendFailed):
		return http.StatusInternalServerError // 500: evaluation-side failure
	}
	return http.StatusBadRequest
}

// errorCode names the sentinel an error wraps, for machine-readable
// error bodies.
func errorCode(err error) string {
	for _, s := range []struct {
		err  error
		code string
	}{
		{ErrUnknownKeySet, "unknown_keyset"},
		{ErrTenantBusy, "tenant_busy"},
		{ErrOverloaded, "overloaded"},
		{hebfv.ErrContextClosed, "context_closed"},
		{hebfv.ErrCorruptBlob, "corrupt_blob"},
		{hebfv.ErrNoSecretKey, "no_secret_key"},
		{hebfv.ErrNoBatching, "no_batching"},
		{hebfv.ErrNilHandle, "nil_handle"},
		{hebfv.ErrForeignHandle, "foreign_handle"},
		{hebfv.ErrBackendFailed, "backend_failed"},
	} {
		if errors.Is(err, s.err) {
			return s.code
		}
	}
	return "bad_request"
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := HTTPStatus(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		s.mu.Lock()
		s.rejections++
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": err.Error(),
		"code":  errorCode(err),
	})
}

// admit reserves one evaluation slot for the tenant, enforcing the
// per-tenant then the global quota. The returned release must be called
// exactly once.
func (s *Server) admit(id [32]byte) (func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	if s.tenantLoad[id] >= s.opts.TenantInflight {
		return nil, fmt.Errorf("%w: %d in flight", ErrTenantBusy, s.tenantLoad[id])
	}
	if s.totalLoad >= s.opts.TotalInflight {
		return nil, fmt.Errorf("%w: %d in flight", ErrOverloaded, s.totalLoad)
	}
	s.tenantLoad[id]++
	s.totalLoad++
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.tenantLoad[id]--
		if s.tenantLoad[id] == 0 {
			delete(s.tenantLoad, id)
		}
		s.totalLoad--
	}, nil
}

// handleOnboard builds (or finds) the tenant's evaluation-only context
// from the streamed key-set blob. With a ?sha256= fingerprint hint,
// concurrent onboards of the same key set singleflight — one build, the
// rest wait; without it the blob streams into a build first and
// deduplicates on insert.
func (s *Server) handleOnboard(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	if hint := r.URL.Query().Get("sha256"); hint != "" {
		id, err := parseFingerprint(hint)
		if err != nil {
			s.writeError(w, err)
			return
		}
		_, release, built, err := s.cache.AcquireOrBuild(id, func() (*hebfv.Context, int64, error) {
			ctx, got, n, err := s.buildTenant(r.Body)
			if err != nil {
				return nil, 0, err
			}
			if got != id {
				ctx.Close()
				return nil, 0, fmt.Errorf("%w: body fingerprint %x does not match hint %x",
					hebfv.ErrCorruptBlob, got[:8], id[:8])
			}
			return ctx, n, nil
		})
		if err != nil {
			s.writeError(w, err)
			return
		}
		release()
		s.writeOnboarded(w, id, !built)
		return
	}
	ctx, id, n, err := s.buildTenant(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if !s.cache.Add(id, ctx, n) {
		ctx.Close() // already resident: keep the incumbent
		s.writeOnboarded(w, id, true)
		return
	}
	s.writeOnboarded(w, id, false)
}

// buildTenant streams one key-set record from r into an evaluation-only
// context, returning the blob's sha256 fingerprint and byte count. The
// fingerprint equals Context.KeySetHash for evaluation-only blobs —
// both are the sha256 of the same canonical encoding.
func (s *Server) buildTenant(r io.Reader) (*hebfv.Context, [32]byte, int64, error) {
	h := sha256.New()
	cr := &countingReader{r: io.TeeReader(r, h)}
	opts := append(append([]hebfv.Option{}, s.opts.ContextOptions...), hebfv.WithKeySetFrom(cr))
	ctx, err := hebfv.New(opts...)
	if err != nil {
		return nil, [32]byte{}, 0, err
	}
	if ctx.CanDecrypt() {
		ctx.Close()
		return nil, [32]byte{}, 0, fmt.Errorf("%w: refusing a key set containing the secret key; export with ExportKeysTo(w, false)", hebfv.ErrCorruptBlob)
	}
	var id [32]byte
	h.Sum(id[:0])
	return ctx, id, cr.n, nil
}

func (s *Server) writeOnboarded(w http.ResponseWriter, id [32]byte, cached bool) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"keyset": hex.EncodeToString(id[:]),
		"cached": cached,
	})
}

// handleEval runs one coalesced operation: admission, context pin,
// streamed operand decode, batched evaluation, streamed response.
//
// The operand handles decode into the pinned context's pooled backings
// (Context.ReadCiphertext), and every handle the request produced —
// operands and output — is released once the response bytes have been
// handed to the ResponseWriter, so a steady-state serve loop recycles
// one working set per in-flight request instead of allocating per op.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	id, err := parseFingerprint(r.URL.Query().Get("keyset"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	release, err := s.admit(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()
	ctx, unpin, err := s.cache.Acquire(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer unpin()

	var a, b, out *hebfv.Ciphertext
	defer func() { releaseHandles(a, b, out) }()
	switch op := r.PathValue("op"); op {
	case "add", "mul":
		if a, err = ctx.ReadCiphertext(r.Body); err != nil {
			s.writeError(w, err)
			return
		}
		if b, err = ctx.ReadCiphertext(r.Body); err != nil {
			s.writeError(w, err)
			return
		}
		if op == "add" {
			out, err = s.coal.Add(ctx, a, b)
		} else {
			out, err = s.coal.Mul(ctx, a, b)
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
	case "rotate":
		k, err := strconv.Atoi(r.URL.Query().Get("k"))
		if err != nil {
			s.writeError(w, fmt.Errorf("serve: rotate needs an integer k parameter: %v", err))
			return
		}
		if a, err = ctx.ReadCiphertext(r.Body); err != nil {
			s.writeError(w, err)
			return
		}
		if out, err = s.coal.RotateRows(ctx, a, k); err != nil {
			s.writeError(w, err)
			return
		}
	default:
		s.writeError(w, fmt.Errorf("serve: unknown operation %q (want add, mul or rotate)", op))
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(out.MarshaledBytes()))
	out.MarshalTo(w) // nothing to salvage mid-stream on error
}

// releaseHandles releases the request's handles. Every operation
// returns a fresh handle, so the three are distinct, and each recycles
// its backings into the context's pool: the operands were decoded into
// it and a host backend draws its result from it (a "pim" result lives
// on the heap and just gets marked dead).
func releaseHandles(hs ...*hebfv.Ciphertext) {
	for _, h := range hs {
		if h != nil {
			h.Release()
		}
	}
}

// ServerStats is the /v1/stats payload.
type ServerStats struct {
	Requests   int64          `json:"requests"`
	Rejections int64          `json:"rejections"` // 429s + 503s
	Inflight   int            `json:"inflight"`
	Cache      CacheStats     `json:"cache"`
	Coalescer  CoalescerStats `json:"coalescer"`
	// Pool aggregates the resident tenant contexts' backing-pool
	// counters (hebfv.Context.PoolStats): recycling hit rate, live
	// handles (in_use — the leak balance), and steady-state retained
	// bytes across the cache.
	Pool hebfv.PoolStats `json:"pool"`
}

// Stats snapshots the serving counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	st := ServerStats{
		Requests:   s.requests,
		Rejections: s.rejections,
		Inflight:   s.totalLoad,
	}
	s.mu.Unlock()
	st.Cache = s.cache.Stats()
	st.Coalescer = s.coal.Stats()
	st.Pool = s.cache.PoolStats()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

func parseFingerprint(hexID string) ([32]byte, error) {
	var id [32]byte
	raw, err := hex.DecodeString(hexID)
	if err != nil || len(raw) != 32 {
		return id, fmt.Errorf("serve: key-set fingerprint must be 64 hex chars")
	}
	copy(id[:], raw)
	return id, nil
}

// countingReader counts bytes as they stream through — the cache's
// per-tenant size estimate.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
