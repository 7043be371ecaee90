package serve

import (
	"container/list"
	"fmt"
	"sync"

	"repro/hebfv"
)

// ContextCache holds evaluation-only hebfv Contexts keyed by key-set
// fingerprint (Context.KeySetHash — sha256 of the evaluation-only key
// export), with LRU eviction under a byte budget. It is the tenancy
// layer of the served evaluation plane: one onboarded key set is one
// tenant, and every request addresses its tenant by fingerprint.
//
// Construction is singleflighted: when many requests race to onboard
// the same fingerprint, exactly one build runs and the rest wait for
// its result. Eviction is deferred under load: an evicted entry with
// in-flight acquisitions is doomed — removed from the table so no new
// request finds it — and its Context is closed by the last release, so
// eviction never races an evaluation.
type ContextCache struct {
	maxBytes int64

	mu       sync.Mutex
	entries  map[[32]byte]*entry
	lru      *list.List // front = most recently used; values are *entry
	inflight map[[32]byte]*buildCall
	bytes    int64

	hits, misses, builds, evictions int64
}

type entry struct {
	id     [32]byte
	ctx    *hebfv.Context
	bytes  int64
	refs   int
	doomed bool
	elem   *list.Element
}

// buildCall is one singleflighted construction: concurrent onboarders
// of the same fingerprint block on done and share the result.
type buildCall struct {
	done chan struct{}
	ctx  *hebfv.Context
	err  error
}

// NewContextCache builds a cache that evicts least-recently-used
// entries once the resident key material exceeds maxBytes (0 means
// unbounded).
func NewContextCache(maxBytes int64) *ContextCache {
	return &ContextCache{
		maxBytes: maxBytes,
		entries:  map[[32]byte]*entry{},
		lru:      list.New(),
		inflight: map[[32]byte]*buildCall{},
	}
}

// Acquire pins the context for id and returns it with a release
// function. Every Acquire must be paired with exactly one release call;
// the context stays open at least until release. Unknown fingerprints
// fail with ErrUnknownKeySet.
func (c *ContextCache) Acquire(id [32]byte) (*hebfv.Context, func(), error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		c.misses++
		return nil, nil, fmt.Errorf("%w: %x", ErrUnknownKeySet, id[:8])
	}
	c.hits++
	e.refs++
	c.lru.MoveToFront(e.elem)
	return e.ctx, func() { c.release(e) }, nil
}

// AcquireOrBuild is Acquire with singleflight construction on miss: the
// first caller runs build, concurrent callers of the same id wait and
// share the outcome, and the built context is inserted (evicting LRU
// entries past the byte budget). build returns the context plus its
// resident-size estimate in bytes. built reports whether this call (or
// the flight it joined) constructed the entry rather than finding it.
func (c *ContextCache) AcquireOrBuild(id [32]byte, build func() (*hebfv.Context, int64, error)) (_ *hebfv.Context, release func(), built bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[id]; ok {
			c.hits++
			e.refs++
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.ctx, func() { c.release(e) }, false, nil
		}
		if call, ok := c.inflight[id]; ok {
			c.mu.Unlock()
			<-call.done
			if call.err != nil {
				return nil, nil, false, call.err
			}
			// The flight inserted the entry; loop to acquire it. It may
			// already have been evicted under extreme pressure — then the
			// loop rebuilds, which is correct, just slow.
			continue
		}
		c.misses++
		call := &buildCall{done: make(chan struct{})}
		c.inflight[id] = call
		c.mu.Unlock()

		ctx, bytes, err := build()
		c.mu.Lock()
		delete(c.inflight, id)
		if err != nil {
			call.err = err
			c.mu.Unlock()
			close(call.done)
			return nil, nil, false, err
		}
		c.builds++
		e := c.insertLocked(id, ctx, bytes)
		e.refs++
		c.mu.Unlock()
		close(call.done)
		return e.ctx, func() { c.release(e) }, true, nil
	}
}

// Add inserts a pre-built context under id, evicting past the budget.
// It reports false — leaving the cache untouched, the caller still owns
// ctx — when the id is already resident.
func (c *ContextCache) Add(id [32]byte, ctx *hebfv.Context, bytes int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[id]; ok {
		return false
	}
	c.builds++
	c.insertLocked(id, ctx, bytes)
	return true
}

// insertLocked adds the entry, then walks the LRU tail until the budget
// holds again. Requires c.mu.
func (c *ContextCache) insertLocked(id [32]byte, ctx *hebfv.Context, bytes int64) *entry {
	e := &entry{id: id, ctx: ctx, bytes: bytes}
	e.elem = c.lru.PushFront(e)
	c.entries[id] = e
	c.bytes += bytes
	for c.maxBytes > 0 && c.bytes > c.maxBytes && c.lru.Len() > 1 {
		victim := c.lru.Back().Value.(*entry)
		if victim == e {
			break
		}
		c.evictLocked(victim)
	}
	return e
}

// evictLocked removes the entry from the table and budget; the Context
// closes now at zero refs, else at the last release. Requires c.mu.
func (c *ContextCache) evictLocked(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.id)
	c.bytes -= e.bytes
	c.evictions++
	e.doomed = true
	if e.refs == 0 {
		e.ctx.Close()
	}
}

func (c *ContextCache) release(e *entry) {
	c.mu.Lock()
	e.refs--
	closeNow := e.doomed && e.refs == 0
	c.mu.Unlock()
	if closeNow {
		e.ctx.Close()
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Builds    int64 `json:"builds"`
	Evictions int64 `json:"evictions"`
}

// PoolStats aggregates the backing-pool counters of every resident
// tenant context (hebfv.Context.PoolStats). Doomed-but-pinned entries
// left the table already, so their in-flight backings drop out of the
// aggregate at eviction, not at their eventual release; the per-context
// leak balance is still auditable on the evicted Context directly.
func (c *ContextCache) PoolStats() hebfv.PoolStats {
	c.mu.Lock()
	entries := make([]*entry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	c.mu.Unlock()
	var agg hebfv.PoolStats
	for _, e := range entries {
		s := e.ctx.PoolStats()
		agg.Gets += s.Gets
		agg.Puts += s.Puts
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Dropped += s.Dropped
		agg.InUse += s.InUse
		agg.RetainedBytes += s.RetainedBytes
	}
	return agg
}

// Stats snapshots the counters.
func (c *ContextCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Builds:    c.builds,
		Evictions: c.evictions,
	}
}
