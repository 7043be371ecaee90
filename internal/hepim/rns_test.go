package hepim

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bfv"
	"repro/internal/limb32"
	"repro/internal/poly"
	"repro/internal/rns"
)

// preset is a named parameter set.
type preset struct {
	name   string
	params *bfv.Parameters
}

// presets are the parameter sets a PIM server runs: the toy set, the
// paper's three and the batching set, whose t is 65537.
func presets() []preset {
	return []preset{
		{"toy", bfv.ParamsToy()}, {"sec27", bfv.ParamsSec27()}, {"sec54", bfv.ParamsSec54()},
		{"sec109", bfv.ParamsSec109()}, {"batching", bfv.ParamsBatching()},
	}
}

// TestResidueTable holds Residues to the residues of the centred
// representatives — x for x ≤ ⌊q/2⌋, else x − q — at 0, ⌊q/2⌋,
// ⌊q/2⌋ + 1 and q − 1, the two sides of the centring threshold and the
// ends of the range, modulo every prime of each preset's tensor.
func TestResidueTable(t *testing.T) {
	for _, pr := range presets() {
		name, params := pr.name, pr.params
		rd, err := rns.NewRounder(params.Q, params.N, params.T)
		if err != nil {
			t.Fatal(err)
		}
		q, one := params.Q, big.NewInt(1)
		above := new(big.Int).Add(q.Half, one)
		rows := []struct{ x, centred *big.Int }{
			{new(big.Int), new(big.Int)},
			{q.Half, q.Half},
			{above, new(big.Int).Sub(above, q.QBig)},
			{new(big.Int).Sub(q.QBig, one), big.NewInt(-1)},
		}
		p := poly.NewPoly(params.N, q.W)
		for i, r := range rows {
			copy(p.Coeff(i), limb32.FromBig(r.x, q.W))
		}
		got := rd.Residues(p)
		for j, m := range rd.Moduli() {
			pj := big.NewInt(int64(m[0]))
			for i, r := range rows {
				if want := new(big.Int).Mod(r.centred, pj); uint64(got[j*params.N+i]) != want.Uint64() {
					t.Errorf("%s: residue of %v mod %d = %d, want %v", name, r.x, m[0], got[j*params.N+i], want)
				}
			}
		}
	}
}

// TestTensorRounderMatchesBig checks, host-only and at every preset, the
// primes a PIM Mul's tensor runs over — distinct, below 2³¹, and with a
// product P > n·q², so that every tensor coefficient is the centred
// representative of its residues — and ScaleRound against ⌊t·X/q⌉ mod q
// taken with math/big (rounding half away from zero) at X = ±2n·⌊q/2⌋²,
// the bound of d1 = a0·b1 + a1·b0, ±1, 0, −p_0, −p_0·p_1 and random
// values within the bound, with X's residues given whole and as the sum
// of two terms.
func TestTensorRounderMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(5101))
	for _, pr := range presets() {
		name, params := pr.name, pr.params
		rd, err := rns.NewRounder(params.Q, params.N, params.T)
		if err != nil {
			t.Fatal(err)
		}
		n, q := params.N, params.Q.QBig
		prod := big.NewInt(1)
		seen := map[uint32]bool{}
		for _, m := range rd.Moduli() {
			if len(m) != 1 || m[0] >= 1<<31 || seen[m[0]] || !big.NewInt(int64(m[0])).ProbablyPrime(20) {
				t.Fatalf("%s: modulus %v is not a distinct prime below 2^31", name, m)
			}
			seen[m[0]] = true
			prod.Mul(prod, big.NewInt(int64(m[0])))
		}
		bound := new(big.Int).Mul(q, q)
		if bound.Mul(bound, big.NewInt(int64(n))); prod.Cmp(bound) <= 0 {
			t.Fatalf("%s: the %d primes' product does not exceed n·q²", name, len(seen))
		}

		top := new(big.Int).Mul(params.Q.Half, params.Q.Half)
		top.Mul(top, big.NewInt(int64(2*n)))
		p0 := big.NewInt(int64(rd.Moduli()[0][0]))
		p01 := new(big.Int).Mul(p0, big.NewInt(int64(rd.Moduli()[1][0])))
		xs := make([]*big.Int, n)
		for i := range xs {
			switch i {
			case 0:
				xs[i] = new(big.Int).Set(top)
			case 1:
				xs[i] = new(big.Int).Neg(top)
			case 2, 3, 4:
				xs[i] = big.NewInt(int64(i - 3))
			case 5, 6: // the lowest digits of |X| zero: P − X carries
				xs[i] = new(big.Int).Neg(p0)
				if i == 6 {
					xs[i].Neg(p01)
				}
			default:
				xs[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(top, 1))
				xs[i].Sub(xs[i], top)
			}
		}
		residues := func(vals []*big.Int) []uint32 {
			out := make([]uint32, len(seen)*n)
			for j, m := range rd.Moduli() {
				pj := big.NewInt(int64(m[0]))
				for i, v := range vals {
					out[j*n+i] = uint32(new(big.Int).Mod(v, pj).Uint64())
				}
			}
			return out
		}
		parts := make([]*big.Int, n)
		rest := make([]*big.Int, n)
		for i, x := range xs {
			parts[i] = new(big.Int).Rand(rng, top)
			rest[i] = new(big.Int).Sub(x, parts[i])
		}
		tb := new(big.Int).SetUint64(params.T)
		for form, got := range map[string]*poly.Poly{
			"whole":     rd.ScaleRound(residues(xs)),
			"two terms": rd.ScaleRound(residues(parts), residues(rest)),
		} {
			for i, x := range xs {
				num := new(big.Int).Mul(x, tb)
				want := new(big.Int).Abs(num)
				want.Add(want, params.Q.Half).Quo(want, q)
				if num.Sign() < 0 {
					want.Neg(want)
				}
				want.Mod(want, q)
				if v := limb32.Nat(got.Coeff(i)).Big(); v.Cmp(want) != 0 {
					t.Fatalf("%s, %s: ⌊t·X/q⌉ mod q for X = %v is %v, want %v", name, form, x, v, want)
				}
			}
		}
	}
}

// TestMulExtremeOperands multiplies ciphertexts whose coefficients are
// all ⌊q/2⌋ or all −⌊q/2⌋: the tensor coefficients reach ±n·⌊q/2⌋² and
// d1 reaches ±2n·⌊q/2⌋², the bound the primes cover. Every product is
// bit-exact against bfv.Evaluator.Mul at the toy, 27- and 54-bit sets.
func TestMulExtremeOperands(t *testing.T) {
	for _, params := range []*bfv.Parameters{bfv.ParamsToy(), bfv.ParamsSec27(), bfv.ParamsSec54()} {
		f := rackFixture(t, params, true)
		q := params.Q
		constant := func(v *big.Int) *bfv.Ciphertext {
			ct := &bfv.Ciphertext{}
			for range 2 {
				p := poly.NewPoly(params.N, q.W)
				for i := 0; i < params.N; i++ {
					copy(p.Coeff(i), limb32.FromBig(v, q.W))
				}
				ct.Polys = append(ct.Polys, p)
			}
			return ct
		}
		pos := constant(q.Half)
		neg := constant(new(big.Int).Sub(q.QBig, q.Half))
		for _, c := range []struct {
			name string
			x, y *bfv.Ciphertext
		}{{"h·(−h)", pos, neg}, {"h·h", pos, pos}, {"(−h)·(−h)", neg, neg}} {
			got, err := f.srv.Mul(c.x, c.y)
			if err != nil {
				t.Fatal(err)
			}
			want, err := f.eval.Mul(c.x, c.y)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%d-bit q, %s: PIM Mul differs from host evaluator", q.Bits(), c.name)
			}
		}
	}
}
