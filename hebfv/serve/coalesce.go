package serve

import (
	"fmt"
	"sync"

	"repro/hebfv"
)

// OpKind names the homomorphic operations the coalescer batches.
type OpKind int

const (
	OpAdd OpKind = iota
	OpMul
	OpRotateRows
)

func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpMul:
		return "mul"
	case OpRotateRows:
		return "rotate"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Coalescer gathers concurrent single-op submissions into batch
// pipeline calls on the hebfv facade: Adds into AddMany, Muls into
// MulMany (the backend's NTT-resident batch pipeline), and same-step
// row rotations into RotateRowsEach. Requests group per (context, op
// kind, rotation step) — homomorphic operations never mix tenants, a
// rotation batch shares one Galois key.
//
// Batching is natural (group commit): a submission whose group has no
// batch running runs at once, on its own goroutine, as a batch of one.
// Submissions that arrive while their group's batch runs queue up, and
// run together on the first one's goroutine as the group's next batch
// as soon as that one finishes — at most maxBatch to a batch. A request
// waits only for the batch ahead of it, never for a timer: a lone
// request waits for nothing, and batches grow with the load. One
// digit-decomposition setup, one worker-pool dispatch and one scratch
// reservation serve each batch, and results are bit-identical to the
// single-op calls — batching in this codebase is a scheduling
// construct, never an approximation.
type Coalescer struct {
	maxBatch int
	eval     func(*batch) // evaluate; a package test wraps it to hold a batch open

	mu sync.Mutex
	// queues has an entry for each group with a batch running: the
	// batches waiting behind it, oldest first.
	queues map[groupKey][]*batch

	ops, batches int64
	maxObserved  int
}

type groupKey struct {
	ctx  *hebfv.Context
	kind OpKind
	step int // rotation step; 0 for add/mul
}

// batch is one group's batch: operands accumulate while it queues, its
// first submitter runs it when its turn comes, and every waiter then
// reads its slot of outs.
type batch struct {
	key    groupKey
	as, bs []*hebfv.Ciphertext
	turn   chan struct{} // closed when the batch may run
	done   chan struct{}
	outs   []*hebfv.Ciphertext
	err    error
}

// NewCoalescer builds a coalescer running at most maxBatch ops (≥ 1)
// per batch.
func NewCoalescer(maxBatch int) *Coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &Coalescer{
		maxBatch: maxBatch,
		eval:     evaluate,
		queues:   map[groupKey][]*batch{},
	}
}

// Add submits a + b and blocks until its batch has run.
func (co *Coalescer) Add(ctx *hebfv.Context, a, b *hebfv.Ciphertext) (*hebfv.Ciphertext, error) {
	return co.submit(groupKey{ctx: ctx, kind: OpAdd}, a, b)
}

// Mul submits the relinearized product a·b and blocks until its batch
// has run.
func (co *Coalescer) Mul(ctx *hebfv.Context, a, b *hebfv.Ciphertext) (*hebfv.Ciphertext, error) {
	return co.submit(groupKey{ctx: ctx, kind: OpMul}, a, b)
}

// RotateRows submits a row rotation by k steps and blocks until its
// batch has run. Only same-step submissions share a batch (they share
// the Galois key).
func (co *Coalescer) RotateRows(ctx *hebfv.Context, a *hebfv.Ciphertext, k int) (*hebfv.Ciphertext, error) {
	return co.submit(groupKey{ctx: ctx, kind: OpRotateRows, step: k}, a, nil)
}

func (co *Coalescer) submit(key groupKey, a, b *hebfv.Ciphertext) (*hebfv.Ciphertext, error) {
	co.mu.Lock()
	co.ops++
	queue, busy := co.queues[key]
	var bt *batch
	if n := len(queue); n > 0 && len(queue[n-1].as) < co.maxBatch {
		bt = queue[n-1]
	} else {
		bt = &batch{key: key, turn: make(chan struct{}), done: make(chan struct{})}
		co.queues[key] = append(queue, bt)
	}
	idx := len(bt.as)
	bt.as = append(bt.as, a)
	bt.bs = append(bt.bs, b)
	if !busy {
		co.nextLocked(key) // bt, alone: nothing to wait for
	}
	co.mu.Unlock()

	if idx == 0 { // the first submitter runs the batch
		<-bt.turn
		co.eval(bt)
		co.mu.Lock()
		co.nextLocked(key)
		co.mu.Unlock()
		close(bt.done)
	}
	<-bt.done
	if bt.err != nil {
		return nil, bt.err
	}
	return bt.outs[idx], nil
}

// nextLocked starts the group's oldest queued batch — off the queue it
// takes no more operands — or, with none queued, marks the group idle.
// The caller holds co.mu.
func (co *Coalescer) nextLocked(key groupKey) {
	queue := co.queues[key]
	if len(queue) == 0 {
		delete(co.queues, key)
		return
	}
	bt := queue[0]
	queue[0] = nil
	co.queues[key] = queue[1:]
	co.batches++
	co.maxObserved = max(co.maxObserved, len(bt.as))
	close(bt.turn)
}

// evaluate makes bt's one batch call.
func evaluate(bt *batch) {
	switch bt.key.kind {
	case OpAdd:
		bt.outs, bt.err = bt.key.ctx.AddMany(bt.as, bt.bs)
	case OpMul:
		bt.outs, bt.err = bt.key.ctx.MulMany(bt.as, bt.bs)
	case OpRotateRows:
		bt.outs, bt.err = bt.key.ctx.RotateRowsEach(bt.as, bt.key.step)
	default:
		bt.err = fmt.Errorf("serve: unknown op kind %v", bt.key.kind)
	}
}

// CoalescerStats is a point-in-time snapshot of the batching counters.
type CoalescerStats struct {
	Ops      int64   `json:"ops"`
	Batches  int64   `json:"batches"`
	MaxBatch int     `json:"max_batch_observed"`
	AvgBatch float64 `json:"avg_batch"`
}

// Stats snapshots the counters.
func (co *Coalescer) Stats() CoalescerStats {
	co.mu.Lock()
	defer co.mu.Unlock()
	s := CoalescerStats{Ops: co.ops, Batches: co.batches, MaxBatch: co.maxObserved}
	if co.batches > 0 {
		s.AvgBatch = float64(co.ops) / float64(co.batches)
	}
	return s
}
