package mpi

import (
	"testing"

	"legato/internal/sim"
)

func newWorld(t *testing.T, size, perNode int) (*sim.Engine, *World) {
	t.Helper()
	eng := sim.NewEngine()
	w, err := NewWorld(eng, Config{Size: size, RanksPerNode: perNode})
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

func TestWorldValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewWorld(eng, Config{Size: 0}); err == nil {
		t.Fatal("zero-size world accepted")
	}
}

func TestNodeMapping(t *testing.T) {
	_, w := newWorld(t, 8, 4)
	if w.NodeOf(0) != 0 || w.NodeOf(3) != 0 || w.NodeOf(4) != 1 || w.NodeOf(7) != 1 {
		t.Fatal("rank→node mapping wrong")
	}
}

func TestSendRecv(t *testing.T) {
	_, w := newWorld(t, 2, 1)
	var got any
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 7, "payload", 100)
		} else {
			got = r.Recv(0, 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "payload" {
		t.Fatalf("recv got %v", got)
	}
}

func TestTagMatching(t *testing.T) {
	_, w := newWorld(t, 2, 1)
	var first, second any
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.ISend(1, 1, "one", 8)
			r.ISend(1, 2, "two", 8)
		} else {
			// Receive in reverse tag order: matching must be by tag.
			second = r.Recv(0, 2)
			first = r.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != "one" || second != "two" {
		t.Fatalf("tag matching: %v %v", first, second)
	}
}

func TestSendTransferTimeScalesWithSize(t *testing.T) {
	eng, w := newWorld(t, 2, 1)
	var done sim.Time
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 0, "x", 10_000_000_000) // 10 GB over 10 GB/s → 1 s
		} else {
			r.Recv(0, 0)
			done = r.Proc().Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sec := sim.ToSeconds(done)
	if sec < 0.99 || sec > 1.01 {
		t.Fatalf("10GB over 10GB/s took %vs, want ~1s", sec)
	}
	_ = eng
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	size := int64(1_000_000_000)
	measure := func(perNode int) sim.Time {
		_, w := newWorld(t, 2, perNode)
		var done sim.Time
		if err := w.Run(func(r *Rank) {
			if r.Rank() == 0 {
				r.Send(1, 0, "x", size)
			} else {
				r.Recv(0, 0)
				done = r.Proc().Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return done
	}
	sameNode := measure(2)
	crossNode := measure(1)
	if sameNode >= crossNode {
		t.Fatalf("shared-memory transfer (%v) not faster than network (%v)", sameNode, crossNode)
	}
}

func TestSendrecvRing(t *testing.T) {
	const n = 4
	_, w := newWorld(t, n, 1)
	got := make([]int, n)
	err := w.Run(func(r *Rank) {
		right := (r.Rank() + 1) % n
		left := (r.Rank() + n - 1) % n
		v := r.Sendrecv(right, 0, r.Rank(), 8, left, 0)
		got[r.Rank()] = v.(int)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := (i + n - 1) % n
		if got[i] != want {
			t.Fatalf("ring shift: rank %d got %d want %d", i, got[i], want)
		}
	}
}

func TestBarrierSynchronises(t *testing.T) {
	const n = 3
	eng, w := newWorld(t, n, 1)
	var after []sim.Time
	err := w.Run(func(r *Rank) {
		d := sim.Time(10 * (r.Rank() + 1))
		r.Proc().Await(func(done func()) { eng.Schedule(d, done) })
		r.Barrier()
		after = append(after, r.Proc().Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range after {
		if a != 30 {
			t.Fatalf("barrier release time %v, want 30", a)
		}
	}
}

func TestAllreduce(t *testing.T) {
	const n = 5
	_, w := newWorld(t, n, 1)
	results := make([]float64, n)
	err := w.Run(func(r *Rank) {
		results[r.Rank()] = r.Allreduce(float64(r.Rank()+1), func(a, b float64) float64 { return a + b })
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != 15 { // 1+2+3+4+5
			t.Fatalf("allreduce on rank %d: got %v want 15", i, v)
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	const n = 4
	_, w := newWorld(t, n, 1)
	results := make([]float64, n)
	err := w.Run(func(r *Rank) {
		v := float64((r.Rank() * 7) % 5)
		results[r.Rank()] = r.Allreduce(v, func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != 4 {
			t.Fatalf("allreduce max on rank %d: got %v", i, v)
		}
	}
}

func TestGather(t *testing.T) {
	const n = 4
	_, w := newWorld(t, n, 1)
	var gathered []any
	err := w.Run(func(r *Rank) {
		res := r.Gather(0, r.Rank()*10, 8)
		if r.Rank() == 0 {
			gathered = res
		} else if res != nil {
			t.Errorf("non-root rank %d got gather result", r.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range gathered {
		if v.(int) != i*10 {
			t.Fatalf("gather[%d] = %v", i, v)
		}
	}
}

func TestBcast(t *testing.T) {
	const n = 4
	_, w := newWorld(t, n, 1)
	got := make([]any, n)
	err := w.Run(func(r *Rank) {
		var payload any
		if r.Rank() == 2 {
			payload = "root-data"
		}
		got[r.Rank()] = r.Bcast(2, payload, 16)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != "root-data" {
			t.Fatalf("bcast on rank %d: %v", i, v)
		}
	}
}

func TestDeadlockReported(t *testing.T) {
	_, w := newWorld(t, 2, 1)
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Recv(1, 0) // never sent
		}
	})
	if err != ErrDeadlock {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
}

func TestBytesSentAccounting(t *testing.T) {
	_, w := newWorld(t, 2, 1)
	var sent int64
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 0, "a", 123)
			r.ISend(1, 0, "b", 77)
			sent = r.BytesSent
		} else {
			r.Recv(0, 0)
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sent != 200 {
		t.Fatalf("bytes sent: %d", sent)
	}
}
