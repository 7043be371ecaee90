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

func TestUniformCoeffs(t *testing.T) {
	s := NewSourceFromUint64(2)
	q109, _ := new(big.Int).SetString("649037107316853453566312041152481", 10)
	q := limb32.FromBig(q109, 4)
	out := make([]uint32, 500*4)
	s.UniformCoeffs(out, q)
	seenHigh := false
	for i := 0; i < len(out); i += 4 {
		v := limb32.Nat(out[i : i+4])
		if limb32.Cmp(v, q, nil) >= 0 {
			t.Fatalf("UniformCoeffs produced %v >= q", v)
		}
		if v.BitLen() > 96 {
			seenHigh = true
		}
	}
	if !seenHigh {
		t.Error("UniformCoeffs never used the high limb; distribution looks wrong")
	}
	// Tight modulus that forces rejection: q = 2^96 + 1 means top limb is
	// almost always rejected.
	qTight := limb32.Nat{1, 0, 0, 1}
	v := limb32.NewNat(4)
	s.UniformCoeffs(v, qTight)
	if limb32.Cmp(v, qTight, nil) >= 0 {
		t.Fatal("rejection sampling failed for tight modulus")
	}
}

// uniformNatOracle is the one-value-at-a-time sampler UniformCoeffs
// replaced: a fresh width-limb value per call.
func uniformNatOracle(s *Source, q limb32.Nat) limb32.Nat {
	bl := q.BitLen()
	limbs := (bl + 31) / 32
	topBits := uint(bl - 32*(limbs-1))
	mask := uint32(1)<<topBits - 1
	if topBits == 32 {
		mask = ^uint32(0)
	}
	out := limb32.NewNat(len(q))
	for {
		for i := 0; i < limbs; i++ {
			out[i] = uint32(s.rng.Uint64())
		}
		out[limbs-1] &= mask
		for i := limbs; i < len(q); i++ {
			out[i] = 0
		}
		if limb32.Cmp(out, q, nil) < 0 {
			return out
		}
	}
}

// TestUniformCoeffsMatchesOracle: the flat sampler draws the oracle's
// words in the oracle's order — keys sampled from a seed depend on it —
// for moduli whose top limb is full, nearly empty, or one bit, and for a
// value narrower than its width, and leaves the source where the oracle
// leaves it. A stale high limb in a recycled destination is cleared.
func TestUniformCoeffsMatchesOracle(t *testing.T) {
	for _, q := range []limb32.Nat{
		{134217689},
		{0xffffffdf, 0x3fffff},
		{0xffffffff, 0xffffffff},
		{0x20a38a61, 0x7f4f44ea, 0x6cfca3ee, 0x1fff},
		{1, 0, 0, 1},
		{7, 0, 0, 0},
	} {
		a, b := NewSourceFromUint64(9), NewSourceFromUint64(9)
		got := make([]uint32, 300*len(q))
		for i := range got {
			got[i] = ^uint32(0)
		}
		a.UniformCoeffs(got, q)
		for i := 0; i < len(got); i += len(q) {
			want := uniformNatOracle(b, q)
			if limb32.Cmp(got[i:i+len(q)], want, nil) != 0 {
				t.Fatalf("q=%v: coefficient %d = %v, oracle %v", q, i/len(q), got[i:i+len(q)], want)
			}
		}
		if a.rng.Uint64() != b.rng.Uint64() {
			t.Fatalf("q=%v: the sources diverge after sampling", q)
		}
	}
}

func TestUniformCoeffsPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSourceFromUint64(3).UniformCoeffs(make([]uint32, 2), limb32.NewNat(2))
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
	if got := GaussianBound(); got != s.gauss.bound {
		t.Errorf("GaussianBound() = %d, want the table's %d", got, s.gauss.bound)
	}
}

// binarySearchSample is the branching inverse-CDF search Gaussian used
// before the branch-free one: the first index of the unpadded table whose
// entry exceeds u, less the bound.
func binarySearchSample(g *gaussTable, u uint64) int8 {
	lo, hi := 0, 2*g.bound
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int8(lo - g.bound)
}

// TestGaussianMatchesBinarySearch: the guide and the branch-free search
// return what the branching search returns, draw by draw, at u just
// below, at and above every table entry, and at both ends of every guide
// range.
func TestGaussianMatchesBinarySearch(t *testing.T) {
	a, b := NewSourceFromUint64(7), NewSourceFromUint64(7)
	g := a.gauss
	got := make([]int8, 200000)
	a.Gaussian(got)
	seen := map[int8]bool{}
	for i, v := range got {
		u := b.rng.Uint64() >> 1
		if want := binarySearchSample(g, u); v != want {
			t.Fatalf("draw %d (u=%#x): got %d, binary search %d", i, u, v, want)
		}
		seen[v] = true
	}
	if len(seen) < 25 {
		t.Errorf("only %d distinct values in 200000 draws", len(seen))
	}
	var edges []uint64
	for _, c := range g.cdf[:2*g.bound+1] {
		edges = append(edges, c-1, c, c+1)
	}
	const width = 1 << (63 - guideBits)
	for b := range g.guide {
		edges = append(edges, uint64(b)*width, uint64(b+1)*width-1)
	}
	for _, u := range edges {
		if u >= 1<<63 {
			continue
		}
		if got, want := g.sample(u), binarySearchSample(g, u); got != want {
			t.Fatalf("u=%#x: got %d, binary search %d", u, got, want)
		}
		if got, want := g.search(u), binarySearchSample(g, u); got != want {
			t.Fatalf("u=%#x: search gives %d, binary search %d", u, got, want)
		}
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
