package sim

import (
	"testing"
)

// sleep blocks p for d of virtual time.
func sleep(p *Proc, d Time) {
	p.Await(func(done func()) { p.eng.Schedule(d, done) })
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Go("p", func(p *Proc) {
		sleep(p, 10)
		times = append(times, p.Now())
		sleep(p, 5)
		times = append(times, p.Now())
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("sleep times: %v", times)
	}
	if e.ActiveProcs() != 0 {
		t.Fatalf("process leaked: %d", e.ActiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		sleep(p, 10)
		order = append(order, "a10")
		sleep(p, 20) // wakes at 30
		order = append(order, "a30")
	})
	e.Go("b", func(p *Proc) {
		sleep(p, 20)
		order = append(order, "b20")
	})
	e.Run()
	want := []string{"a10", "b20", "a30"}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("interleaving: got %v want %v", order, want)
		}
	}
}

func TestProcAwaitPipe(t *testing.T) {
	e := NewEngine()
	pipe := NewPipe(e, 100, 0)
	var doneAt Time
	e.Go("xfer", func(p *Proc) {
		p.TransferP(pipe, 200) // 2 seconds at 100 B/s
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != Seconds(2) {
		t.Fatalf("transfer completed at %v, want 2s", doneAt)
	}
}

func TestProcUseResource(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var ends []Time
	for i := 0; i < 2; i++ {
		e.Go("u", func(p *Proc) {
			p.Await(func(done func()) { r.Use(10, done) })
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	if len(ends) != 2 || ends[0] != 10 || ends[1] != 20 {
		t.Fatalf("resource serialisation via procs: %v", ends)
	}
}

func TestMailboxRendezvous(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e)
	var got any
	var gotAt Time
	e.Go("recv", func(p *Proc) {
		got = mb.Get(p)
		gotAt = p.Now()
	})
	e.Go("send", func(p *Proc) {
		sleep(p, 30)
		mb.Put("hello")
	})
	e.Run()
	if got != "hello" || gotAt != 30 {
		t.Fatalf("mailbox: got %v at %v", got, gotAt)
	}
}

func TestMailboxBuffered(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e)
	mb.Put(1)
	mb.Put(2)
	if len(mb.items) != 2 {
		t.Fatalf("len: %d", len(mb.items))
	}
	var got []int
	e.Go("r", func(p *Proc) {
		got = append(got, mb.Get(p).(int), mb.Get(p).(int))
	})
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fifo order: %v", got)
	}
	if len(mb.items) != 0 {
		t.Fatalf("%d items left after both were taken", len(mb.items))
	}
}

func TestMailboxMultipleWaitersFIFO(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			mb.Get(p)
			order = append(order, i)
		})
	}
	e.Go("s", func(p *Proc) {
		sleep(p, 5)
		for i := 0; i < 3; i++ {
			mb.Put(i)
		}
	})
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("waiter wake order: %v", order)
	}
}

func TestBarrier(t *testing.T) {
	e := NewEngine()
	const n = 4
	b := NewBarrier(e, n)
	var released []Time
	for i := 0; i < n; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			sleep(p, Time(10*(i+1))) // arrive at 10, 20, 30, 40
			b.Wait(p)
			released = append(released, p.Now())
		})
	}
	e.Run()
	if len(released) != n {
		t.Fatalf("released %d of %d", len(released), n)
	}
	for _, r := range released {
		if r != 40 {
			t.Fatalf("barrier released at %v, want 40 (last arrival)", r)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 2)
	count := 0
	for i := 0; i < 2; i++ {
		e.Go("p", func(p *Proc) {
			for round := 0; round < 3; round++ {
				sleep(p, 1)
				b.Wait(p)
				count++
			}
		})
	}
	e.Run()
	if count != 6 {
		t.Fatalf("reusable barrier rounds: %d", count)
	}
	if e.ActiveProcs() != 0 {
		t.Fatal("deadlocked processes after reusable barrier")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e)
	e.Go("stuck", func(p *Proc) {
		mb.Get(p) // never satisfied
	})
	e.Run()
	if e.ActiveProcs() != 1 {
		t.Fatalf("expected 1 deadlocked process, got %d", e.ActiveProcs())
	}
}
