// Package faultinject is a deterministic, seeded fault injector: the
// single source of injected failures for chaos runs across the
// codebase. Consumers name a site (a string identifying the failure
// point, e.g. "dpu.transient" or "pool.panic") and a site-local key (a
// stable identifier of the particular opportunity to fail, e.g. a
// launch-sequence/DPU-ID pair), and the injector decides hit-or-miss as
// a pure function of (seed, site, key).
//
// Because the decision depends only on those three values — never on
// call order, goroutine scheduling, or wall-clock time — a chaos run is
// exactly reproducible: the same seed and rates fail the same DPUs on
// the same launches every time, whether driven from a test or from the
// hepim-bench -faults flag. Per-site draw/hit counters make the
// injected fault load observable after a run.
//
// A nil *Injector is valid and never fires, so consumers keep one
// always-present hook that costs a nil check when fault injection is
// disabled.
package faultinject

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Injector decides injected failures deterministically from a seed.
// The zero rate for an unknown site means "never fire", so consumers
// can probe sites unconditionally.
type Injector struct {
	seed  uint64
	rates map[string]float64

	mu    sync.Mutex
	stats map[string]*SiteStats
}

// SiteStats counts one site's decisions.
type SiteStats struct {
	Draws uint64 // times the site was consulted
	Hits  uint64 // times it fired
}

// New returns an injector with the given seed and no armed sites.
func New(seed uint64) *Injector {
	return &Injector{
		seed:  seed,
		rates: map[string]float64{},
		stats: map[string]*SiteStats{},
	}
}

// SetRate arms a site with fault probability p (clamped to [0, 1]) and
// returns the injector for chaining. Rates are configuration: set them
// before the run starts, not concurrently with Hit.
func (in *Injector) SetRate(site string, p float64) *Injector {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	in.rates[site] = p
	return in
}

// Hit reports whether the fault at (site, key) fires. The decision is a
// pure function of the injector's seed, the site name, and the key, so
// it is independent of call order and safe to consult from any
// goroutine. A nil injector never fires.
func (in *Injector) Hit(site string, key uint64) bool {
	if in == nil {
		return false
	}
	p, armed := in.rates[site]
	if !armed || p <= 0 {
		return false
	}
	x := mix64(in.seed ^ mix64(key) ^ hashSite(site))
	// Top 53 bits → uniform in [0, 1).
	hit := float64(x>>11)/(1<<53) < p
	in.mu.Lock()
	st := in.stats[site]
	if st == nil {
		st = &SiteStats{}
		in.stats[site] = st
	}
	st.Draws++
	if hit {
		st.Hits++
	}
	in.mu.Unlock()
	return hit
}

// Stats returns a snapshot of the per-site counters (empty for nil).
func (in *Injector) Stats() map[string]SiteStats {
	out := map[string]SiteStats{}
	if in == nil {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for site, st := range in.stats {
		out[site] = *st
	}
	return out
}

// String summarizes the armed sites and their counters.
func (in *Injector) String() string {
	if in == nil {
		return "faultinject: disabled"
	}
	sites := make([]string, 0, len(in.rates))
	for site := range in.rates {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	stats := in.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "faultinject(seed=%d)", in.seed)
	for _, site := range sites {
		st := stats[site]
		fmt.Fprintf(&b, " %s=%g(%d/%d)", site, in.rates[site], st.Hits, st.Draws)
	}
	return b.String()
}

// Key packs two small identifiers (e.g. a launch sequence number and a
// unit index) into one decision key without collisions for lo < 2³².
func Key(hi, lo uint64) uint64 { return hi<<32 | lo&0xffffffff }

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashSite is FNV-1a over the site name, mixed so distinct sites
// decorrelate even for short names.
func hashSite(site string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 0x100000001b3
	}
	return mix64(h)
}
