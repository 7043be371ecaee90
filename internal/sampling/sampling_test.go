package sampling

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/limb32"
)

func TestDeterminism(t *testing.T) {
	a := NewSourceFromUint64(42)
	b := NewSourceFromUint64(42)
	for i := 0; i < 100; i++ {
		if a.rng.Uint64() != b.rng.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewSourceFromUint64(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.rng.Uint64() != c.rng.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestSystemSource(t *testing.T) {
	s, err := NewSystemSource()
	if err != nil {
		t.Fatal(err)
	}
	x, y := s.rng.Uint64(), s.rng.Uint64()
	if x == 0 && y == 0 {
		t.Error("system source produced zeros (astronomically unlikely)")
	}
}

func TestUniformModRange(t *testing.T) {
	s := NewSourceFromUint64(1)
	out := make([]uint64, 10000)
	q := uint64(134217689)
	for i := range out {
		out[i] = s.Uint64N(q)
	}
	var sum float64
	for _, v := range out {
		if v >= q {
			t.Fatalf("value %d out of range", v)
		}
		sum += float64(v)
	}
	mean := sum / float64(len(out))
	want := float64(q) / 2
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("uniform mean %.0f too far from %.0f", mean, want)
	}
}

func TestUniformNat(t *testing.T) {
	s := NewSourceFromUint64(2)
	q109, _ := new(big.Int).SetString("649037107316853453566312041152481", 10)
	q := limb32.FromBig(q109, 4)
	seenHigh := false
	for i := 0; i < 500; i++ {
		v := s.UniformNat(q, 4)
		if limb32.Cmp(v, q, nil) >= 0 {
			t.Fatalf("UniformNat produced %v >= q", v)
		}
		if v.BitLen() > 96 {
			seenHigh = true
		}
	}
	if !seenHigh {
		t.Error("UniformNat never used the high limb; distribution looks wrong")
	}
	// Tight modulus that forces rejection: q = 2^96 + 1 means top limb is
	// almost always rejected.
	qTight := limb32.Nat{1, 0, 0, 1}
	v := s.UniformNat(qTight, 4)
	if limb32.Cmp(v, qTight, nil) >= 0 {
		t.Fatal("rejection sampling failed for tight modulus")
	}
}

func TestUniformNatPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSourceFromUint64(3).UniformNat(limb32.NewNat(2), 2)
}

func TestTernaryDistribution(t *testing.T) {
	s := NewSourceFromUint64(4)
	out := make([]int8, 30000)
	s.Ternary(out)
	var counts [3]int
	for _, v := range out {
		if v < -1 || v > 1 {
			t.Fatalf("ternary value %d", v)
		}
		counts[v+1]++
	}
	for i, c := range counts {
		frac := float64(c) / float64(len(out))
		if math.Abs(frac-1.0/3.0) > 0.02 {
			t.Errorf("ternary bucket %d has fraction %.3f, want ~0.333", i-1, frac)
		}
	}
}

func TestGaussianShape(t *testing.T) {
	s := NewSourceFromUint64(5)
	out := make([]int8, 100000)
	s.Gaussian(out)
	bound := s.gauss.bound
	var sum, sumSq float64
	for _, v := range out {
		if int(v) < -bound || int(v) > bound {
			t.Fatalf("gaussian value %d outside ±%d", v, bound)
		}
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	n := float64(len(out))
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Errorf("gaussian mean %.3f, want ~0", mean)
	}
	if math.Abs(std-DefaultSigma)/DefaultSigma > 0.03 {
		t.Errorf("gaussian std %.3f, want ~%.1f", std, DefaultSigma)
	}
}

func TestGaussianBound(t *testing.T) {
	s := NewSourceFromUint64(6)
	if got, want := s.gauss.bound, int(math.Ceil(6*DefaultSigma)); got != want {
		t.Errorf("Gaussian bound = %d, want %d", got, want)
	}
}

func TestGaussTableMonotone(t *testing.T) {
	g := newGaussTable(DefaultSigma)
	for i := 1; i < len(g.cdf); i++ {
		if g.cdf[i] < g.cdf[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if g.cdf[len(g.cdf)-1] != 1<<63 {
		t.Error("CDF must end at full scale")
	}
}
