package vclock

import "fmt"

// Mailbox is a delayed-delivery message queue in virtual time.  Put
// schedules a message to become visible after a delay (modelling network
// latency plus transmission time); Get blocks the calling actor until a
// message is deliverable.  Messages delivered at distinct virtual times
// are received in time order; ties are broken by Put order.
type Mailbox struct {
	c       *Clock
	name    string
	label   fmt.Stringer // lazily rendered name, used when name is ""
	ready   fifo[any]    // delivered, not yet consumed
	waiters fifo[*Actor] // actors blocked in Get
	pending int          // scheduled deliveries not yet fired
	closed  bool
}

// NewMailbox returns an empty mailbox on clock c.  The name is used in
// deadlock diagnostics.
func NewMailbox(c *Clock, name string) *Mailbox {
	return &Mailbox{c: c, name: name}
}

// NewMailboxNamed is NewMailbox with a name rendered only if a deadlock
// diagnostic asks for it.
func NewMailboxNamed(c *Clock, name fmt.Stringer) *Mailbox {
	return &Mailbox{c: c, label: name}
}

// displayName renders the mailbox's diagnostic name.
func (m *Mailbox) displayName() string {
	if m.label != nil {
		return m.label.String()
	}
	return m.name
}

// Len reports the number of deliverable (not in-flight) messages.
func (m *Mailbox) Len() int {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	return m.ready.len()
}

// InFlight reports the number of scheduled, not-yet-delivered messages.
func (m *Mailbox) InFlight() int {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	return m.pending
}

// Put schedules v for delivery after delay.  It never blocks and may be
// called from any goroutine (actor or not).  Put on a closed mailbox
// silently drops the message, which is what a network delivers to a
// closed socket during shutdown.
func (m *Mailbox) Put(v any, delay Duration) {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.closed {
		return
	}
	if delay < 0 {
		delay = 0
	}
	m.pending++
	ev := c.schedule(c.now+Time(delay), evDeliver)
	ev.m, ev.v = m, v
}

// Close marks the mailbox closed.  Blocked and future Gets return ok ==
// false once no deliverable or in-flight messages remain.
func (m *Mailbox) Close() {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	// Wake everyone so they can observe the close.
	for m.waiters.len() > 0 {
		m.wakeOneLocked()
	}
}

// wakeOneLocked pops the first waiter, if any, and makes it runnable.
// Caller holds the clock lock.
func (m *Mailbox) wakeOneLocked() {
	if m.waiters.len() == 0 {
		return
	}
	m.c.wakeActor(m.waiters.pop())
}

// removeWaiterLocked deletes a from the waiter list if present.  Caller
// holds the clock lock.
func (m *Mailbox) removeWaiterLocked(a *Actor) {
	for i, w := range m.waiters.items() {
		if w == a {
			m.waiters.removeAt(i)
			return
		}
	}
}

// Get blocks the actor until a message is deliverable and returns it.
// ok is false if the mailbox is closed and drained.
func (a *Actor) Get(m *Mailbox) (v any, ok bool) {
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if m.ready.len() > 0 {
			return m.ready.pop(), true
		}
		if m.closed && m.pending == 0 {
			return nil, false
		}
		m.waiters.push(a)
		a.state = actorState{kind: stReceiving, m: m}
		c.blockActor(a)
		c.mu.Unlock()
		<-a.wake
		c.mu.Lock()
		c.checkDeadLocked()
		a.state = actorState{}
	}
}

// GetTimeout is Get with a virtual-time deadline.  ok is false if the
// timeout elapsed (or the mailbox closed and drained) before a message
// became deliverable.
func (a *Actor) GetTimeout(m *Mailbox, d Duration) (v any, ok bool) {
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if d < 0 {
		d = 0
	}
	deadline := c.now + Time(d)
	var timer *event
	for {
		if m.ready.len() > 0 {
			if timer != nil {
				timer.cancel()
			}
			return m.ready.pop(), true
		}
		if m.closed && m.pending == 0 {
			if timer != nil {
				timer.cancel()
			}
			return nil, false
		}
		if c.now >= deadline {
			return nil, false
		}
		if timer == nil || timer.canceled {
			timer = c.schedule(deadline, evTimeout)
			timer.a, timer.m = a, m
		}
		m.waiters.push(a)
		a.state = actorState{kind: stReceiving, until: deadline, timed: true, m: m}
		c.blockActor(a)
		c.mu.Unlock()
		<-a.wake
		c.mu.Lock()
		c.checkDeadLocked()
		a.state = actorState{}
		// We may have been woken by a delivery while the timer is still
		// pending, or by the timer while still in the waiter list (not
		// possible: the timer removes us), or by Close.  Clean both up.
		m.removeWaiterLocked(a)
	}
}
