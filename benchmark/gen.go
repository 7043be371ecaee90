package main

// rng is splitmix64: the benchmark's own generator, so a seed names the
// same inputs on every Go release.
type rng uint64

func newRNG(seed uint64, stream uint64) *rng {
	r := rng(seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03)
	r.next()
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// values draws n plaintext slot values below bound.
func (r *rng) values(n int, bound uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.next() % bound
	}
	return out
}

// opKind is a served operation.
type opKind int

const (
	opAdd opKind = iota
	opMul
	opRotate
	numOps
)

var opNames = [numOps]string{"add", "mul", "rotate"}

// request is one generated served request: which tenant, which
// operation, which pre-encrypted operand pair.
type request struct {
	tenant int
	op     opKind
	pair   int
}

// mixedGen yields serve_mixed's request sequence of one worker. Every
// block of tenants×3 requests is a seeded shuffle of all (tenant, op)
// combinations, so the operation mix is the same on every seed and only
// order and operands vary: throughput is comparable across seeds.
type mixedGen struct {
	r       *rng
	tenants int
	pairs   int
	block   []request
}

func newMixedGen(seed uint64, worker, tenants, pairs int) *mixedGen {
	return &mixedGen{r: newRNG(seed, uint64(worker)+1), tenants: tenants, pairs: pairs}
}

func (g *mixedGen) next() request {
	if len(g.block) == 0 {
		for t := 0; t < g.tenants; t++ {
			for op := opKind(0); op < numOps; op++ {
				g.block = append(g.block, request{tenant: t, op: op, pair: g.r.intn(g.pairs)})
			}
		}
		for i := len(g.block) - 1; i > 0; i-- {
			j := g.r.intn(i + 1)
			g.block[i], g.block[j] = g.block[j], g.block[i]
		}
	}
	req := g.block[len(g.block)-1]
	g.block = g.block[:len(g.block)-1]
	return req
}

// churnGen yields serve_churn's sequence: a served add for a uniformly
// drawn tenant, so with more tenants than cache slots most draws miss.
type churnGen struct {
	r       *rng
	tenants int
	pairs   int
}

func newChurnGen(seed uint64, worker, tenants, pairs int) *churnGen {
	return &churnGen{r: newRNG(seed, uint64(worker)+101), tenants: tenants, pairs: pairs}
}

func (g *churnGen) next() request {
	return request{tenant: g.r.intn(g.tenants), op: opAdd, pair: g.r.intn(g.pairs)}
}
