package vclock

import "sync"

// Spawned actors run on pooled worker goroutines rather than on one
// fresh goroutine each.  A simulation spawns an actor per inbound
// request, and a fresh goroutine starts on a minimal stack that every
// such actor regrows through the same deep call chain; a parked worker
// keeps its grown stack for the next actor.
//
// Pooling changes nothing about order.  A worker runs exactly one actor
// at a time, that actor runs only while it holds the clock's run token,
// and the token moves in the FIFO order the clock decides — which
// worker happens to carry an actor is invisible to the simulation.

// maxIdleWorkers bounds the parked workers kept across all clocks; a
// worker finishing an actor while the pool is full exits instead.
const maxIdleWorkers = 64

// worker is a goroutine that runs spawned actors one after another.
type worker struct {
	// wake is the run-token channel, lent to each actor the worker
	// runs.  The first token an actor receives is also the worker's
	// signal to start it.
	wake chan struct{}
	a    *Actor // actor to run next; set by spawn before its first token
	task Task   // its body
}

var pool struct {
	mu   sync.Mutex
	idle []*worker
}

// getWorker returns a parked worker, or starts a new one.  Either way
// the worker waits for its first wake token, which the clock sends only
// after spawn has set w.a and w.task.
func getWorker() *worker {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if n := len(pool.idle); n > 0 {
		w := pool.idle[n-1]
		pool.idle[n-1] = nil
		pool.idle = pool.idle[:n-1]
		return w
	}
	w := &worker{wake: make(chan struct{}, 1)}
	go w.loop()
	return w
}

func (w *worker) loop() {
	for {
		<-w.wake
		a, t := w.a, w.task
		w.a, w.task = nil, nil
		run(a, t)
		if len(w.wake) != 0 {
			panic("vclock: wake token left over after actor " + a.Name() + " retired")
		}
		if !park(w) {
			return
		}
	}
}

// run executes one actor to completion.  The deferred Done retires the
// actor even when its body exits the goroutine (runtime.Goexit), in
// which case the worker dies with it instead of returning to the pool.
func run(a *Actor, t Task) {
	defer a.Done()
	a.resume()
	t.Run(a)
}

// park returns w to the pool, or reports false if the pool is full.
func park(w *worker) bool {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if len(pool.idle) >= maxIdleWorkers {
		return false
	}
	pool.idle = append(pool.idle, w)
	return true
}
