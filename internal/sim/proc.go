package sim

// Process-interaction layer: model processes written as ordinary sequential
// Go functions that block in virtual time (Await, mailbox Get). The
// engine runs processes cooperatively — exactly one goroutine (the engine's
// caller or one process) executes at any instant, so process code needs no
// locking and the simulation stays deterministic.
//
// The handshake: when the engine wakes a process it blocks until the
// process parks again (in Await/Get) or returns. While a process
// runs, the engine is parked, so processes may safely call Schedule,
// Put, Transfer, etc.

// Proc is a simulated process. Methods on Proc must only be called from
// within the process's own function.
type Proc struct {
	eng    *Engine
	Name   string
	resume chan struct{}
	parked chan struct{}
	done   bool
}

// Go spawns fn as a simulated process starting at the current virtual time.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, Name: name, resume: make(chan struct{}), parked: make(chan struct{})}
	e.procs++
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		e.procs--
		p.parked <- struct{}{}
	}()
	e.Schedule(0, p.wake)
	return p
}

// ActiveProcs returns the number of spawned processes that have not yet
// returned. A nonzero value after Run means processes are deadlocked
// waiting for events that will never fire.
func (e *Engine) ActiveProcs() int { return e.procs }

// wake transfers control to the process and blocks until it parks or exits.
// It must run in engine context (inside an event callback).
func (p *Proc) wake() {
	p.resume <- struct{}{}
	<-p.parked
}

// park yields control back to the engine and blocks until woken.
func (p *Proc) park() {
	p.parked <- struct{}{}
	<-p.resume
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Await parks the process until the completion callback passed to register
// is invoked. register runs immediately in the process's context; the
// callback may fire from any later engine event.
//
//	p.Await(func(done func()) { pipe.Transfer(n, done) })
func (p *Proc) Await(register func(done func())) {
	fired := false
	register(func() {
		if fired {
			panic("sim: Await completion invoked twice")
		}
		fired = true
		// Wake the process from engine context.
		p.eng.Schedule(0, p.wake)
	})
	p.park()
}

// TransferP blocks the process while size bytes move through the pipe
// (including queueing behind earlier transfers).
func (p *Proc) TransferP(pipe *Pipe, size int64) {
	p.Await(func(done func()) { pipe.Transfer(size, done) })
}

// Mailbox is an unbounded FIFO of items exchanged between processes in
// virtual time. Put never blocks; Get blocks the calling process until an
// item is available. Multiple concurrent getters are served FIFO.
type Mailbox struct {
	eng     *Engine
	items   []any
	waiters []func(any)
}

// NewMailbox creates an empty mailbox.
func NewMailbox(eng *Engine) *Mailbox { return &Mailbox{eng: eng} }

// Put deposits an item; if a process is blocked in Get, it is woken and
// receives the item directly.
func (m *Mailbox) Put(item any) {
	if len(m.waiters) > 0 {
		h := m.waiters[0]
		m.waiters = m.waiters[1:]
		h(item)
		return
	}
	m.items = append(m.items, item)
}

// Get blocks the process until an item is available, then returns it.
func (m *Mailbox) Get(p *Proc) any {
	if len(m.items) > 0 {
		it := m.items[0]
		m.items = m.items[1:]
		return it
	}
	var got any
	p.Await(func(done func()) {
		m.waiters = append(m.waiters, func(it any) {
			got = it
			done()
		})
	})
	return got
}

// Barrier synchronises n processes: each calls Wait and blocks until all n
// have arrived, then all are released at the same virtual instant. The
// barrier is reusable (generation-counted).
type Barrier struct {
	eng     *Engine
	n       int
	arrived int
	waiting []func()
}

// NewBarrier creates a barrier for n parties.
func NewBarrier(eng *Engine, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &Barrier{eng: eng, n: n}
}

// Wait blocks the process until all parties have arrived.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		// Release everyone, reset for reuse.
		release := b.waiting
		b.waiting = nil
		b.arrived = 0
		for _, r := range release {
			r()
		}
		return
	}
	p.Await(func(done func()) {
		b.waiting = append(b.waiting, done)
	})
}
