package jsymphony_test

// The simulated invoke path, one layer at a time: the vclock Sleep
// handoff, a mailbox Put→Get round trip, codebase dispatch of
// kv.Store.Get, and one remote SInvoke on the simulated paper cluster.
// TestHotpathAllocCeiling pins each layer's allocation budget, the way
// TestWireAllocCeiling pins the codec's; the BenchmarkHotpath* functions
// report the same layers' wall cost.

import (
	"testing"
	"time"

	"jsymphony"
	"jsymphony/internal/codebase"
	"jsymphony/internal/vclock"
	"jsymphony/workloads/kv"
)

// sleepPair enrolls the caller in a fresh clock beside a partner actor
// that sleeps in lockstep, so each Sleep of the returned actor is one
// handoff of the run token and back.  stop retires both.
func sleepPair() (a *vclock.Actor, stop func()) {
	c := vclock.New()
	done := false
	c.Spawn("pong", func(p *vclock.Actor) {
		p.Sleep(time.Microsecond)
		for !done {
			p.Sleep(2 * time.Microsecond)
		}
	})
	a = c.Adopt("ping")
	return a, func() {
		done = true
		a.Done()
		c.Run()
	}
}

// mailboxLoop returns one Put→Get round trip through a mailbox on a
// fresh clock, run by the returned actor.
func mailboxLoop() (roundTrip func(), stop func()) {
	c := vclock.New()
	a := c.Adopt("self")
	box := vclock.NewMailbox(c, "box")
	v := new(int)
	return func() {
			box.Put(v, time.Microsecond)
			a.Get(box)
		}, func() {
			a.Done()
			c.Run()
		}
}

// storeGet returns a warmed-up dispatch of kv.Store.Get through
// codebase.Invoke, with the *Ctx argument the runtime injects.
func storeGet(tb testing.TB) func() {
	s := &kv.Store{}
	s.Init(0)
	args := []any{&jsymphony.Ctx{}, "k"}
	get := func() {
		if _, err := codebase.Invoke(s, "Get", args); err != nil {
			tb.Fatal(err)
		}
	}
	get()
	return get
}

// withRemoteStore runs fn on the paper cluster's first node with a
// kv.Store created on another node and warmed up by a few calls.
func withRemoteStore(tb testing.TB, fn func(get func())) {
	env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.IdleProfile, 1, jsymphony.EnvOptions{})
	env.RunMain("", func(js *jsymphony.JS) {
		node, err := js.NewNamedNode("rachel")
		if err != nil {
			tb.Fatal(err)
		}
		cb := js.NewCodebase()
		if err := cb.Add(kv.StoreClass); err != nil {
			tb.Fatal(err)
		}
		if err := cb.Load(node); err != nil {
			tb.Fatal(err)
		}
		obj, err := js.NewObject(kv.StoreClass, node, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := obj.SInvoke("Init", 0.0); err != nil {
			tb.Fatal(err)
		}
		get := func() {
			if _, err := obj.SInvoke("Get", "k"); err != nil {
				tb.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			get()
		}
		fn(get)
	})
}

// TestHotpathAllocCeiling pins the per-layer allocation budget of the
// simulated invoke path at its measured values.  A regression that
// brings back eager diagnostic strings, per-event closures, per-call
// method lookup or per-message name formatting fails here.
func TestHotpathAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own and bypasses sync.Pool, so allocation budgets do not hold under it")
	}
	check := func(layer string, ceiling float64, fn func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, fn); got > ceiling {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", layer, got, ceiling)
		}
	}

	a, stop := sleepPair()
	check("vclock Actor.Sleep handoff", 0, func() { a.Sleep(2 * time.Microsecond) })
	stop()

	roundTrip, stop := mailboxLoop()
	check("vclock mailbox Put→Get", 0, roundTrip)
	stop()

	check("codebase.Invoke kv.Store.Get", 3, storeGet(t))

	withRemoteStore(t, func(get func()) {
		check("remote SInvoke kv.Store.Get", 50, get)
	})
}

func BenchmarkHotpathSleep(b *testing.B) {
	a, stop := sleepPair()
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Sleep(2 * time.Microsecond)
	}
}

func BenchmarkHotpathMailbox(b *testing.B) {
	roundTrip, stop := mailboxLoop()
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

func BenchmarkHotpathInvoke(b *testing.B) {
	get := storeGet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

func BenchmarkHotpathSInvoke(b *testing.B) {
	withRemoteStore(b, func(get func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get()
		}
	})
}
