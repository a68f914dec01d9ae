// Package sched implements a randomized work-stealing task pool modeled
// on the cilk++ runtime the paper uses for intra-node parallelism
// (Blumofe & Leiserson, "Scheduling multithreaded computations by work
// stealing", JACM 1999 — reference [3] of the paper).
//
// Each worker owns a double-ended queue: newly spawned tasks are pushed
// to the bottom and popped LIFO by the owner (depth-first, cache-warm);
// idle workers steal from the TOP of a random victim's deque — the oldest
// and typically largest piece of outstanding work — exactly the
// discipline the paper describes in Section IV.A ("Dynamic load balancing
// among threads").
package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is a unit of work. Tasks may spawn further tasks via the worker.
type Task func(w *Worker)

// Pool is a fixed set of worker goroutines executing spawned tasks until
// quiescence. Create with NewPool, submit with Run, release with Close.
type Pool struct {
	workers []*Worker

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	sleeping int

	pending int64  // outstanding tasks across all deques + running
	epoch   uint64 // bumped on every push, defeats sleep/push races
	steals  int64  // successful steals (for tests and ablation benches)

	runMu      sync.Mutex // serializes Run calls
	panicMu    sync.Mutex
	panicVal   any
	panicValid bool

	wg sync.WaitGroup
}

// Worker is one of the pool's workers. The pointer is passed to every
// task so tasks can spawn children onto the local deque and key
// per-worker accumulators off ID().
type Worker struct {
	pool *Pool
	id   int
	dq   deque
	rng  *rand.Rand
}

// ID returns the worker's index in [0, NumWorkers).
func (w *Worker) ID() int { return w.id }

// NumWorkers returns the pool size.
func (p *Pool) NumWorkers() int { return len(p.workers) }

// Steals returns the number of successful steals since pool creation.
func (p *Pool) Steals() int64 { return atomic.LoadInt64(&p.steals) }

// NewPool creates a pool with n workers (n<=0 selects GOMAXPROCS).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.workers = make([]*Worker, n)
	for i := range p.workers {
		p.workers[i] = &Worker{
			pool: p,
			id:   i,
			rng:  rand.New(rand.NewSource(int64(i)*2654435761 + 1)),
		}
	}
	p.wg.Add(n)
	for _, w := range p.workers {
		go w.loop()
	}
	return p
}

// Run executes root (and everything it transitively spawns) to
// completion. It must not be called from inside a task, and concurrent
// Run calls are serialized. If any task panics, Run re-panics with that
// value after the pool drains.
func (p *Pool) Run(root Task) {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	p.panicMu.Lock()
	p.panicVal, p.panicValid = nil, false
	p.panicMu.Unlock()
	atomic.StoreInt64(&p.pending, 1)
	p.workers[0].dq.pushBottom(root)
	p.bumpAndWake()

	p.mu.Lock()
	for atomic.LoadInt64(&p.pending) != 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
	p.panicMu.Lock()
	v, ok := p.panicVal, p.panicValid
	p.panicMu.Unlock()
	if ok {
		panic(fmt.Sprintf("sched: task panicked: %v", v))
	}
}

// Spawn schedules t for execution. Must only be called from inside a
// running task, on the worker that is executing it.
func (w *Worker) Spawn(t Task) {
	atomic.AddInt64(&w.pool.pending, 1)
	w.dq.pushBottom(t)
	w.pool.bumpAndWake()
}

// bumpAndWake advertises new work to sleeping workers.
func (p *Pool) bumpAndWake() {
	atomic.AddUint64(&p.epoch, 1)
	p.mu.Lock()
	if p.sleeping > 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Close shuts the pool down. It must not be called while a Run is in
// flight. Close is idempotent.
func (p *Pool) Close() {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (w *Worker) loop() {
	p := w.pool
	defer p.wg.Done()
	for {
		// Record the epoch BEFORE searching, and sleep only if it has not
		// moved since: a task pushed at any point after this load — while
		// the search runs or after it came back empty — bumps the epoch and
		// sends the worker round again. (Loading it after the search loses
		// a root that Run pushes in between: every worker goes to sleep on
		// the new epoch and Run waits forever.)
		e := atomic.LoadUint64(&p.epoch)
		t := w.findWork()
		if t != nil {
			w.exec(t)
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		if atomic.LoadUint64(&p.epoch) == e {
			p.sleeping++
			p.cond.Wait()
			p.sleeping--
		}
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return
		}
	}
}

// exec runs one task, recovering panics so the pool survives and Run can
// re-panic deterministically.
func (w *Worker) exec(t Task) {
	defer func() {
		if r := recover(); r != nil {
			p := w.pool
			p.panicMu.Lock()
			if !p.panicValid {
				p.panicVal, p.panicValid = r, true
			}
			p.panicMu.Unlock()
		}
		if atomic.AddInt64(&w.pool.pending, -1) == 0 {
			w.pool.mu.Lock()
			w.pool.cond.Broadcast()
			w.pool.mu.Unlock()
		}
	}()
	t(w)
}

// findWork pops locally, then makes a bounded number of random steal
// attempts across the other workers.
func (w *Worker) findWork() Task {
	if t := w.dq.popBottom(); t != nil {
		return t
	}
	n := len(w.pool.workers)
	if n == 1 {
		return nil
	}
	attempts := 4 * n
	for i := 0; i < attempts; i++ {
		victim := w.pool.workers[w.rng.Intn(n)]
		if victim == w {
			continue
		}
		if t := victim.dq.stealTop(); t != nil {
			atomic.AddInt64(&w.pool.steals, 1)
			return t
		}
	}
	return nil
}

// deque is a mutex-protected double-ended task queue: the owner pushes
// and pops at the bottom (LIFO), thieves take from the top (FIFO — the
// least-recently-pushed entry, which cilk++ steals "to reduce the number
// of cache misses", Section V.A).
type deque struct {
	mu    sync.Mutex
	tasks []Task
	head  int // index of the top (oldest) element
}

func (d *deque) pushBottom(t Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *deque) popBottom() Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == d.head {
		d.reset()
		return nil
	}
	t := d.tasks[len(d.tasks)-1]
	d.tasks[len(d.tasks)-1] = nil
	d.tasks = d.tasks[:len(d.tasks)-1]
	return t
}

func (d *deque) stealTop() Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == d.head {
		d.reset()
		return nil
	}
	t := d.tasks[d.head]
	d.tasks[d.head] = nil
	d.head++
	return t
}

// reset reclaims the dead prefix once the deque drains.
func (d *deque) reset() {
	d.tasks = d.tasks[:0]
	d.head = 0
}
