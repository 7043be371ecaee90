package faultinject

import (
	"math"
	"sync"
	"testing"
)

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if in.Hit("any.site", 7) {
		t.Fatal("nil injector fired")
	}
	if len(in.Stats()) != 0 {
		t.Fatal("nil injector has stats")
	}
	if in.String() != "faultinject: disabled" {
		t.Fatalf("nil String: %q", in.String())
	}
}

func TestUnarmedSiteNeverFires(t *testing.T) {
	in := New(1).SetRate("armed", 1)
	for key := uint64(0); key < 100; key++ {
		if in.Hit("unarmed", key) {
			t.Fatal("unarmed site fired")
		}
		if !in.Hit("armed", key) {
			t.Fatal("rate-1 site did not fire")
		}
	}
}

func TestDeterministicAcrossInstancesAndOrder(t *testing.T) {
	a := New(42).SetRate("dpu.transient", 0.3).SetRate("dpu.dead", 0.1)
	b := New(42).SetRate("dpu.transient", 0.3).SetRate("dpu.dead", 0.1)
	// Consult b in reverse order: decisions must match a's key-for-key.
	type probe struct {
		site string
		key  uint64
	}
	var probes []probe
	for key := uint64(0); key < 500; key++ {
		probes = append(probes, probe{"dpu.transient", key}, probe{"dpu.dead", key})
	}
	got := map[probe]bool{}
	for i := len(probes) - 1; i >= 0; i-- {
		got[probes[i]] = b.Hit(probes[i].site, probes[i].key)
	}
	for _, p := range probes {
		if a.Hit(p.site, p.key) != got[p] {
			t.Fatalf("decision for %v differs across call order", p)
		}
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	a := New(1).SetRate("s", 0.5)
	b := New(2).SetRate("s", 0.5)
	same := 0
	const n = 2000
	for key := uint64(0); key < n; key++ {
		if a.Hit("s", key) == b.Hit("s", key) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical decision streams")
	}
}

func TestRateIsApproximatelyHonored(t *testing.T) {
	for _, p := range []float64{0.05, 0.1, 0.5, 0.9} {
		in := New(7).SetRate("s", p)
		const n = 20000
		hits := 0
		for key := uint64(0); key < n; key++ {
			if in.Hit("s", key) {
				hits++
			}
		}
		got := float64(hits) / n
		// 5σ binomial tolerance.
		tol := 5 * math.Sqrt(p*(1-p)/n)
		if math.Abs(got-p) > tol {
			t.Errorf("rate %g: observed %g (tolerance %g)", p, got, tol)
		}
		st := in.Stats()["s"]
		if st.Draws != n || st.Hits != uint64(hits) {
			t.Errorf("rate %g: stats %+v, want draws=%d hits=%d", p, st, n, hits)
		}
	}
}

func TestRateClamping(t *testing.T) {
	in := New(1).SetRate("lo", -2).SetRate("hi", 3)
	if in.rates["lo"] != 0 || in.rates["hi"] != 1 {
		t.Fatalf("clamping failed: lo=%g hi=%g", in.rates["lo"], in.rates["hi"])
	}
}

func TestSitesDecorrelate(t *testing.T) {
	in := New(9).SetRate("a", 0.5).SetRate("b", 0.5)
	same := 0
	const n = 2000
	for key := uint64(0); key < n; key++ {
		if in.Hit("a", key) == in.Hit("b", key) {
			same++
		}
	}
	if same == n {
		t.Fatal("two sites produced identical decision streams")
	}
}

func TestKeyPacking(t *testing.T) {
	seen := map[uint64]bool{}
	for hi := uint64(0); hi < 16; hi++ {
		for lo := uint64(0); lo < 16; lo++ {
			k := Key(hi, lo)
			if seen[k] {
				t.Fatalf("Key(%d,%d) collides", hi, lo)
			}
			seen[k] = true
		}
	}
}

func TestConcurrentHits(t *testing.T) {
	in := New(3).SetRate("s", 0.5)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				in.Hit("s", uint64(w*per+i))
			}
		}(w)
	}
	wg.Wait()
	if st := in.Stats()["s"]; st.Draws != workers*per {
		t.Fatalf("draws %d, want %d", st.Draws, workers*per)
	}
}
