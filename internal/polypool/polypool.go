// Package polypool provides size-classed free lists for limb-aligned
// polynomial backings ([]uint32 keyed by word count n·w). It is the
// memory layer behind the zero-copy serving path: request decoding and
// the host engine's results acquire backings from a context-owned pool,
// evaluation reads them in place, and handle release returns them for
// the next request, so the steady-state serve loop recycles a fixed
// working set instead of churning the garbage collector.
//
// The pool is deliberately simple: a mutex-guarded map from word count
// to a stack of free backings, bounded by a total retention byte cap.
// Get prefers a pooled backing of the exact class and falls back to a
// fresh allocation (a miss); Put returns a backing, dropping it when
// retention is full. Every acquire/release is counted, and
// InUse = Gets − Puts is the leak-balance invariant the serve tests
// assert: a context that decoded k pooled ciphertexts and released all
// of them reads InUse == 0.
//
// Backings returned by Get have undefined contents — callers that need
// zeroed memory must clear them. The serving decode path overwrites
// every word, so it never pays for zeroing.
package polypool

import "sync"

// Stats is a point-in-time snapshot of pool counters. All fields are
// cumulative except InUse and RetainedBytes, which are balances.
type Stats struct {
	// Gets counts backings handed out (pooled or freshly allocated).
	Gets int64 `json:"gets"`
	// Puts counts backings returned (retained or dropped).
	Puts int64 `json:"puts"`
	// Hits counts Gets satisfied from a free list.
	Hits int64 `json:"hits"`
	// Misses counts Gets that fell back to a fresh allocation.
	Misses int64 `json:"misses"`
	// Dropped counts Puts discarded because retention was full (or the
	// pool is retention-disabled).
	Dropped int64 `json:"dropped"`
	// InUse is Gets − Puts: backings currently held by live handles.
	// A steady-state server with all handles released reads zero.
	InUse int64 `json:"in_use"`
	// RetainedBytes is the total size of backings sitting on free
	// lists, bounded by the pool's retention cap.
	RetainedBytes int64 `json:"retained_bytes"`
}

// Pool is a size-classed free list of []uint32 backings. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use.
type Pool struct {
	mu       sync.Mutex
	free     map[int][][]uint32 // word count -> free stack
	retained int64              // bytes across all free lists
	cap      int64              // retention cap in bytes; 0 disables retention

	gets, puts, hits, misses, dropped int64
}

// New returns a pool retaining at most maxRetainBytes of free
// backings. A cap of 0 disables retention — every Put drops its
// backing — which keeps the acquire/release accounting (and the leak
// invariant) intact while restoring ordinary per-request allocation;
// the serving A/B benchmarks use this as the pooling-off arm.
// Negative caps are treated as 0.
func New(maxRetainBytes int64) *Pool {
	if maxRetainBytes < 0 {
		maxRetainBytes = 0
	}
	return &Pool{free: make(map[int][][]uint32), cap: maxRetainBytes}
}

// Get returns a backing of exactly words words. Contents are
// undefined. words must be positive.
func (p *Pool) Get(words int) []uint32 {
	if words <= 0 {
		panic("polypool: Get with non-positive word count")
	}
	p.mu.Lock()
	p.gets++
	if stack := p.free[words]; len(stack) > 0 {
		b := stack[len(stack)-1]
		stack[len(stack)-1] = nil
		p.free[words] = stack[:len(stack)-1]
		p.retained -= int64(words) * 4
		p.hits++
		p.mu.Unlock()
		return b
	}
	p.misses++
	p.mu.Unlock()
	return make([]uint32, words)
}

// Put returns a backing to its size class. The caller must not touch b
// afterwards. Backings beyond the retention cap are dropped (counted,
// then left to the garbage collector).
func (p *Pool) Put(b []uint32) {
	if len(b) == 0 {
		return
	}
	words := len(b)
	bytes := int64(words) * 4
	p.mu.Lock()
	p.puts++
	if p.retained+bytes > p.cap {
		p.dropped++
		p.mu.Unlock()
		return
	}
	p.free[words] = append(p.free[words], b)
	p.retained += bytes
	p.mu.Unlock()
}

// Drain discards every retained backing and returns the number of
// bytes freed. Cumulative counters and the InUse balance are
// unaffected: draining releases the pool's own memory, not the
// handles' — Context.Close drains after the last handle check.
func (p *Pool) Drain() int64 {
	p.mu.Lock()
	freed := p.retained
	p.free = make(map[int][][]uint32)
	p.retained = 0
	p.mu.Unlock()
	return freed
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	s := Stats{
		Gets:          p.gets,
		Puts:          p.puts,
		Hits:          p.hits,
		Misses:        p.misses,
		Dropped:       p.dropped,
		InUse:         p.gets - p.puts,
		RetainedBytes: p.retained,
	}
	p.mu.Unlock()
	return s
}
