// Package vclock is a virtual-time discrete-event kernel.
//
// The paper evaluates JavaSymphony on a non-dedicated heterogeneous
// cluster of 13 Sun workstations (Section 6).  This repository reproduces
// that environment as a deterministic simulation: the full JRS protocol
// stack runs on real goroutines, but *time* is virtual.  Goroutines that
// participate in the simulation register as actors; virtual time advances
// only when every actor is quiescent (sleeping or blocked on a mailbox),
// and then jumps directly to the earliest pending event.  A multi-minute
// matrix-multiplication run on the simulated cluster therefore completes
// in milliseconds of wall time while preserving every ordering and
// duration relationship.
//
// The kernel provides three primitives:
//
//   - Actors (Spawn/Adopt): goroutines enrolled in the simulation.
//   - Sleep: advance an actor through d units of virtual time (this is
//     how simulated computation and transmission delays are charged).
//   - Mailboxes: delayed-delivery message queues; Put schedules a
//     delivery event, Get blocks the actor in virtual time.
//
// If every actor is blocked and no event is pending the simulation can
// never progress; the kernel panics with a per-actor diagnostic rather
// than deadlocking silently.
//
// # Determinism
//
// Actors execute one at a time: a single run token passes between them,
// in FIFO order of becoming runnable.  Without this, two actors runnable
// at the same virtual instant would race in *real* time to schedule
// their next events, the event sequence numbers that break same-instant
// ties would differ from run to run, and simulations would diverge by
// microseconds between identically-seeded executions.  With it, a
// simulation is a deterministic function of its inputs — byte-identical
// metrics snapshots across runs — provided the setup phase is covered
// too: no actor may run (and no event order be decided) while a
// non-actor goroutine is still spawning.  A spawn onto an idle clock
// from outside the simulation therefore holds the run token (see Hold)
// until that goroutine calls Adopt to enter the simulation or Run to
// wait for it.
package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Duration re-exports time.Duration for callers' convenience; virtual
// durations use the ordinary time package units.
type Duration = time.Duration

// eventKind says what an event does when it fires.
type eventKind uint8

const (
	evWake    eventKind = iota // wake actor a (Sleep)
	evDeliver                  // deliver v to mailbox m (Put)
	evTimeout                  // drop a from m's waiters and wake it (GetTimeout)
)

// event is one entry in the timer heap.  It carries its target as data
// rather than as a closure, so scheduling one costs no allocation beyond
// the event itself, and fired wake and delivery events are recycled.
type event struct {
	when     Time
	seq      uint64 // insertion order; breaks ties deterministically
	kind     eventKind
	canceled bool
	a        *Actor
	m        *Mailbox
	v        any
}

// cancel disarms a pending timeout event; the clock discards it unfired
// when it reaches the heap's top.  Its targets are dropped at once, so
// the dead entry retains no actor or mailbox until then.
func (ev *event) cancel() {
	ev.canceled = true
	ev.a, ev.m = nil, nil
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// maxFreeEvents bounds a clock's recycled-event list.
const maxFreeEvents = 256

// Clock is a virtual clock shared by a set of actors.
type Clock struct {
	mu       sync.Mutex
	now      Time
	seq      uint64
	runnable int
	held     bool         // run token reserved by a setup goroutine (Hold)
	cur      *Actor       // actor currently holding the run token
	runq     fifo[*Actor] // runnable actors awaiting the run token
	actors   map[*Actor]struct{}
	timers   eventHeap
	free     []*event // fired wake/delivery events, ready for reuse
	wg       sync.WaitGroup
	dead     bool   // set on deadlock; poisons further use
	deadMsg  string // diagnostic captured when the deadlock was detected
}

// New returns a clock at virtual time zero with no actors.
func New() *Clock {
	return &Clock{actors: make(map[*Actor]struct{})}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Actors returns the number of live actors.
func (c *Clock) Actors() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.actors)
}

// stateKind classifies what an actor is doing, for deadlock diagnostics.
type stateKind uint8

const (
	stRunning stateKind = iota
	stStarting
	stSleeping
	stReceiving
)

// actorState is an actor's diagnostic state as plain data.  It is
// rendered to text only when a deadlock dump needs it, never on the
// blocking path itself.
type actorState struct {
	kind  stateKind
	until Time     // stSleeping: wake instant; stReceiving: deadline if timed
	timed bool     // stReceiving: GetTimeout rather than Get
	m     *Mailbox // stReceiving: the mailbox
}

func (s actorState) String() string {
	switch s.kind {
	case stStarting:
		return "starting"
	case stSleeping:
		return fmt.Sprintf("sleeping until %v", time.Duration(s.until))
	case stReceiving:
		if s.timed {
			return fmt.Sprintf("receiving on mailbox %s (timeout at %v)", s.m.displayName(), time.Duration(s.until))
		}
		return "receiving on mailbox " + s.m.displayName()
	}
	return "running"
}

// Actor is a goroutine enrolled in the simulation.  All methods must be
// called from the goroutine that owns the actor.
//
// An actor is not a goroutine: spawned actors run on pooled worker
// goroutines (see pool.go), one after another, so code must not
// identify an actor by its goroutine.
type Actor struct {
	c       *Clock
	name    string
	label   fmt.Stringer // lazily rendered name, used when name is ""
	wake    chan struct{}
	state   actorState // diagnostic: what the actor is currently doing
	waiting bool       // true while blocked; guards against double wake
	done    bool
}

// Name returns the actor's diagnostic name.
func (a *Actor) Name() string {
	if a.label != nil {
		return a.label.String()
	}
	return a.name
}

// Clock returns the clock this actor belongs to.
func (a *Actor) Clock() *Clock { return a.c }

// Now returns the current virtual time.
func (a *Actor) Now() Time { return a.c.Now() }

// Hold reserves the run token for the calling (non-actor) goroutine:
// actors spawned while the hold is in place are queued and do not start
// running until the holder calls Adopt and becomes an actor itself.
// Construction code uses this so that the order in which actors first
// run — and with it every event tie-break in the simulation — is a
// deterministic function of the spawn order, not of the Go scheduler.
// Hold must be called before any actor is spawned.  A spawn onto an
// idle clock from a non-actor goroutine takes the hold implicitly, so
// an outside goroutine setting up a simulation cannot see its first
// actor run, block and advance time (or be declared deadlocked) before
// the rest are registered.  Adopt or Run releases it.
func (c *Clock) Hold() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held = true
}

// Adopt enrolls the calling goroutine as an actor.  The caller must call
// Done when it leaves the simulation.  If the clock is held, the hold is
// converted into this actor's run token; otherwise the caller may block
// until the token reaches it.
func (c *Clock) Adopt(name string) *Actor {
	a := &Actor{c: c, name: name, wake: make(chan struct{}, 1)}
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		panic("vclock: clock is poisoned after a deadlock")
	}
	c.actors[a] = struct{}{}
	c.runnable++
	c.wg.Add(1)
	if c.held {
		c.held = false
		c.cur = a
		c.mu.Unlock()
		return a
	}
	if c.cur == nil && c.runq.len() == 0 {
		c.cur = a
		c.mu.Unlock()
		return a
	}
	a.state.kind = stStarting
	c.runq.push(a)
	c.mu.Unlock()
	a.await()
	return a
}

// Task is an actor body that names itself.  String is called only when
// a diagnostic needs the actor's name, so a hot path can spawn without
// formatting one.
type Task interface {
	Run(a *Actor)
	String() string
}

// funcTask runs a plain function; its actor's name is stored as text.
type funcTask func(*Actor)

func (f funcTask) Run(a *Actor)   { f(a) }
func (f funcTask) String() string { return "" }

// Spawn starts fn as a new actor.  The actor is registered before Spawn
// returns, so virtual time cannot advance past the spawn point before fn
// begins; fn itself runs only once the actor is granted the run token.
// The actor is automatically retired when fn returns.
func (c *Clock) Spawn(name string, fn func(*Actor)) { c.spawn(name, nil, funcTask(fn)) }

// SpawnTask is Spawn for a Task, which also serves as the actor's
// lazily rendered name.
func (c *Clock) SpawnTask(t Task) { c.spawn("", t, t) }

func (c *Clock) spawn(name string, label fmt.Stringer, t Task) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		panic("vclock: clock is poisoned after a deadlock")
	}
	if c.cur == nil {
		// Nobody holds the run token, so no actor is running and the
		// caller is outside the simulation (an actor only spawns while
		// it runs): hold the token until the caller adopts or waits.
		c.held = true
	}
	w := getWorker()
	a := &Actor{c: c, name: name, label: label, wake: w.wake, state: actorState{kind: stStarting}}
	w.a, w.task = a, t
	c.actors[a] = struct{}{}
	c.runnable++
	c.wg.Add(1)
	c.runq.push(a)
	c.dispatchLocked()
	c.mu.Unlock()
}

// await blocks until the actor is granted the run token.
func (a *Actor) await() {
	<-a.wake
	a.resume()
}

// resume re-enters the clock after the actor's wake token arrived.
func (a *Actor) resume() {
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checkDeadLocked()
	a.state = actorState{}
}

// Done retires the actor.  Further use of the actor is a bug.
func (a *Actor) Done() {
	c := a.c
	c.mu.Lock()
	if a.done {
		c.mu.Unlock()
		panic("vclock: Done called twice on actor " + a.Name())
	}
	a.done = true
	delete(c.actors, a)
	c.runnable--
	if c.cur == a {
		c.cur = nil
	}
	c.dispatchLocked()
	c.maybeAdvance()
	c.mu.Unlock()
	c.wg.Done()
}

// Run blocks the calling (non-actor) goroutine until every actor has
// retired.  It is the usual way for a test or main function to wait for a
// simulation to finish.  A caller that waits never adopts, so Run first
// releases a hold on the run token.
func (c *Clock) Run() {
	c.mu.Lock()
	if c.held {
		c.held = false
		c.dispatchLocked()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// Sleep advances the actor d units of virtual time.  Negative durations
// are treated as zero (a yield: the actor re-becomes runnable at the
// current instant, after already-scheduled same-instant events).
func (a *Actor) Sleep(d Duration) {
	c := a.c
	c.mu.Lock()
	if d < 0 {
		d = 0
	}
	when := c.now + Time(d)
	a.state = actorState{kind: stSleeping, until: when}
	ev := c.schedule(when, evWake)
	ev.a = a
	c.blockActor(a)
	c.mu.Unlock()
	a.await()
}

// checkDeadLocked panics with the deadlock diagnostic if the clock has
// been poisoned.  Caller holds the lock; the panic unwinds through the
// caller's deferred unlock.
func (c *Clock) checkDeadLocked() {
	if c.dead {
		panic(c.deadMsg)
	}
}

// schedule inserts an event of the given kind; the caller fills in its
// target.  Caller holds the lock.
func (c *Clock) schedule(when Time, kind eventKind) *event {
	if when < c.now {
		when = c.now
	}
	var ev *event
	if n := len(c.free); n > 0 {
		ev = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.when, ev.seq, ev.kind = when, c.seq, kind
	c.seq++
	heap.Push(&c.timers, ev)
	return ev
}

// fire runs one due event.  Wake and delivery events are referenced by
// nothing once popped, so they are recycled; a fired timeout event stays
// owned by its GetTimeout call, which may still cancel it.  Caller holds
// the lock.
func (c *Clock) fire(ev *event) {
	switch ev.kind {
	case evWake:
		c.wakeActor(ev.a)
	case evDeliver:
		m := ev.m
		m.pending--
		m.ready.push(ev.v)
		m.wakeOneLocked()
	case evTimeout:
		// Only wake if still waiting; the waiter removes itself from
		// m.waiters on its own wake path.
		ev.m.removeWaiterLocked(ev.a)
		c.wakeActor(ev.a)
		return
	}
	c.recycle(ev)
}

// recycle returns a popped event to the free list.  Only the clock may
// still reference it: a wake or delivery event after firing, or a
// canceled timeout, whose GetTimeout returned when it canceled it.
// Caller holds the lock.
func (c *Clock) recycle(ev *event) {
	if len(c.free) < maxFreeEvents {
		*ev = event{}
		c.free = append(c.free, ev)
	}
}

// wakeActor marks a as runnable, queueing it for the run token.  A wake
// of an actor that is not blocked (e.g. a mailbox delivery and a timeout
// firing at the same virtual instant) is a no-op.  Caller holds the
// lock.
func (c *Clock) wakeActor(a *Actor) {
	if !a.waiting {
		return
	}
	a.waiting = false
	c.runnable++
	c.runq.push(a)
	c.dispatchLocked()
}

// dispatchLocked hands the run token to the next queued actor, if the
// token is free.  On a poisoned clock it instead releases every queued
// actor so each can observe the deadlock diagnostic.  Caller holds the
// lock.
func (c *Clock) dispatchLocked() {
	if c.dead {
		for c.runq.len() > 0 {
			c.runq.pop().wake <- struct{}{}
		}
		return
	}
	if c.held || c.cur != nil || c.runq.len() == 0 {
		return
	}
	a := c.runq.pop()
	c.cur = a
	a.wake <- struct{}{}
}

// blockActor records that a stopped running, passes the run token on,
// and advances the clock if it was the last runnable actor.  Caller
// holds the lock; the caller must release it and receive on a.wake
// afterwards.
func (c *Clock) blockActor(a *Actor) {
	a.waiting = true
	c.runnable--
	if c.cur == a {
		c.cur = nil
	}
	c.dispatchLocked()
	c.maybeAdvance()
}

// maybeAdvance advances virtual time while nothing is runnable.  Caller
// holds the lock.
//
// If no event is pending the simulation is deadlocked: the clock is
// poisoned and every blocked actor is woken so that it can panic with the
// diagnostic from its own blocking primitive (panicking here, inside an
// arbitrary actor's stack with the lock held, would wedge the rest).
func (c *Clock) maybeAdvance() {
	if c.dead {
		return
	}
	for c.runnable == 0 && len(c.actors) > 0 {
		// Discard canceled events.
		for len(c.timers) > 0 && c.timers[0].canceled {
			c.recycle(heap.Pop(&c.timers).(*event))
		}
		if len(c.timers) == 0 {
			c.dead = true
			c.deadMsg = "vclock: deadlock — all actors blocked with no pending events\n" + c.dumpLocked()
			for a := range c.actors {
				c.wakeActor(a)
			}
			return
		}
		next := c.timers[0].when
		if next < c.now {
			panic("vclock: time went backwards")
		}
		c.now = next
		// Fire every event scheduled for this instant, in insertion
		// order, before re-checking runnability.
		for len(c.timers) > 0 && c.timers[0].when == c.now {
			if ev := heap.Pop(&c.timers).(*event); ev.canceled {
				c.recycle(ev)
			} else {
				c.fire(ev)
			}
		}
	}
}

// dumpLocked renders per-actor diagnostics.  It is the only place actor
// states and lazily named actors and mailboxes are turned into text.
// Caller holds the lock.
func (c *Clock) dumpLocked() string {
	lines := make([]string, 0, len(c.actors))
	for a := range c.actors {
		lines = append(lines, fmt.Sprintf("  actor %q: %s", a.Name(), a.state))
	}
	sort.Strings(lines)
	return fmt.Sprintf("at virtual time %v:\n%s", time.Duration(c.now), strings.Join(lines, "\n"))
}

// fifo is a first-in first-out queue that reuses its storage: a pop
// advances a head index rather than reslicing away the front, so
// steady push/pop traffic stops reallocating once the backing array has
// grown to the queue's working size.
type fifo[T any] struct {
	buf  []T
	head int
	one  [1]T // initial storage: most mailboxes never hold more than one
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// items returns the queued values, oldest first.  The slice aliases the
// queue's storage.
func (q *fifo[T]) items() []T { return q.buf[q.head:] }

func (q *fifo[T]) push(v T) {
	if q.buf == nil {
		q.buf = q.one[:0]
	}
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		// At least half the array is dead front: slide the live tail
		// down instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	grow := len(q.buf) == cap(q.buf)
	q.buf = append(q.buf, v)
	if grow {
		// The values moved to a new array; drop the initial storage's
		// copy so it pins nothing.
		clear(q.one[:])
	}
}

// pop removes and returns the oldest value; the queue must be non-empty.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// removeAt deletes the i-th queued value (0 is the oldest).
func (q *fifo[T]) removeAt(i int) {
	var zero T
	j := q.head + i
	copy(q.buf[j:], q.buf[j+1:])
	q.buf[len(q.buf)-1] = zero
	q.buf = q.buf[:len(q.buf)-1]
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}
