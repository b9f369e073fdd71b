package vclock

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// lazyName counts its renderings, so a test can tell whether a
// diagnostic name was formatted on the hot path or only on demand.
type lazyName struct {
	s        string
	rendered *int
}

func (n lazyName) String() string { *n.rendered++; return n.s }

// lazyTask is an actor body named by a lazyName.
type lazyTask struct {
	lazyName
	fn func(*Actor)
}

func (t lazyTask) Run(a *Actor) { t.fn(a) }

// TestDiagnosticDumpFormat pins the text of the lazily rendered actor
// states: one actor sleeping, one in Get, one in GetTimeout, dumped
// while the observer holds the run token.
func TestDiagnosticDumpFormat(t *testing.T) {
	c := New()
	main := c.Adopt("main")
	x, y := NewMailbox(c, "X"), NewMailbox(c, "Y")
	c.Spawn("sleeper", func(a *Actor) { a.Sleep(5 * time.Millisecond) })
	c.Spawn("getter", func(a *Actor) { a.Get(x) })
	c.Spawn("timer", func(a *Actor) { a.GetTimeout(y, 10*time.Millisecond) })
	main.Sleep(0) // let all three run and block

	c.mu.Lock()
	got := c.dumpLocked()
	c.mu.Unlock()
	want := strings.Join([]string{
		"at virtual time 0s:",
		`  actor "getter": receiving on mailbox X`,
		`  actor "main": running`,
		`  actor "sleeper": sleeping until 5ms`,
		`  actor "timer": receiving on mailbox Y (timeout at 10ms)`,
	}, "\n")
	if got != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", got, want)
	}
	x.Put(1, 0)
	main.Done()
	c.Run()
}

// TestDeadlockReleasesPooledActors builds a real deadlock among pooled
// actors with lazily named mailboxes and actors.  Every blocked actor
// must be released with the diagnostic, the names must be rendered only
// then, the clock must refuse further spawns, and every worker must go
// back to the pool.
func TestDeadlockReleasesPooledActors(t *testing.T) {
	base := runtime.NumGoroutine()
	rendered := 0
	c := New()
	c.Hold()
	const n = 5
	boxes := make([]*Mailbox, n)
	msgs := make(chan string, n)
	for i := range boxes {
		boxes[i] = NewMailboxNamed(c, lazyName{fmt.Sprintf("box%d", i), &rendered})
		box := boxes[i]
		c.SpawnTask(lazyTask{lazyName{fmt.Sprintf("stuck%d", i), &rendered}, func(a *Actor) {
			defer func() { msgs <- fmt.Sprint(recover()) }()
			a.Sleep(time.Duration(i) * time.Millisecond)
			a.Get(box) // nobody ever puts: deadlock once all are here
		}})
	}
	main := c.Adopt("main")
	if rendered != 0 {
		t.Fatalf("names rendered %d times before any deadlock", rendered)
	}
	main.Done()
	c.Run() // returns only if every actor was released and retired
	close(msgs)
	released := 0
	for m := range msgs {
		released++
		if !strings.HasPrefix(m, "vclock: deadlock") {
			t.Fatalf("actor released with %q, want the deadlock diagnostic", m)
		}
		for i := 0; i < n; i++ {
			line := fmt.Sprintf(`actor "stuck%d": receiving on mailbox box%d`, i, i)
			if !strings.Contains(m, line) {
				t.Fatalf("diagnostic lacks %q:\n%s", line, m)
			}
		}
	}
	if released != n {
		t.Fatalf("%d of %d actors released", released, n)
	}
	if rendered != 2*n {
		t.Fatalf("names rendered %d times, want once each (%d)", rendered, 2*n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Spawn on a poisoned clock did not panic")
			}
		}()
		c.Spawn("late", func(*Actor) {})
	}()
	waitGoroutines(t, base+maxIdleWorkers)
}

// TestWorkerPoolBounded runs many short sequential simulations: the
// parked workers stay within the pool bound, and the same seed still
// produces the same execution.
func TestWorkerPoolBounded(t *testing.T) {
	base := runtime.NumGoroutine()
	run := func(seed int64) uint64 {
		h := fnv.New64a()
		for i := 0; i < 1000; i++ {
			rng := rand.New(rand.NewSource(seed + int64(i)))
			c := New()
			c.Hold()
			box := NewMailbox(c, "box")
			for j := 0; j < 3; j++ {
				d := time.Duration(rng.Intn(100)) * time.Microsecond
				c.Spawn("w", func(a *Actor) {
					a.Sleep(d)
					box.Put(j, d)
					v, _ := a.Get(box)
					fmt.Fprintf(h, "%d:%d@%d;", j, v, a.Now())
				})
			}
			c.Adopt("main").Done()
			c.Run()
		}
		return h.Sum64()
	}
	first := run(7)
	waitGoroutines(t, base+maxIdleWorkers)

	// A burst of 3×bound concurrent actors needs that many workers at
	// once; afterwards all but the bound must exit.
	c := New()
	for i := 0; i < 3*maxIdleWorkers; i++ {
		c.Spawn("burst", func(a *Actor) { a.Sleep(time.Millisecond) })
	}
	c.Run()
	waitGoroutines(t, base+maxIdleWorkers)

	if again := run(7); again != first {
		t.Fatalf("same seed, different executions: %x vs %x", first, again)
	}
	if other := run(8); other == first {
		t.Fatal("different seeds gave identical executions")
	}
	waitGoroutines(t, base+maxIdleWorkers)
}

// waitGoroutines waits for retiring workers to park or exit, then fails
// if more than limit (plus a small allowance for runtime helpers)
// goroutines remain.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	const slack = 4
	n := runtime.NumGoroutine()
	for i := 0; i < 10000 && n > limit+slack; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > limit+slack {
		t.Fatalf("%d goroutines alive, want <= %d (pool bound %d)", n, limit+slack, maxIdleWorkers)
	}
}
