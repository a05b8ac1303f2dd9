package fti

import (
	"bytes"
	"testing"

	"legato/internal/gpu"
	"legato/internal/mpi"
	"legato/internal/sim"
)

// harness builds an engine, world and store for n ranks over nodes nodes.
func harness(t *testing.T, ranks, nodes int) (*sim.Engine, *mpi.World, *Store) {
	t.Helper()
	eng := sim.NewEngine()
	w, err := mpi.NewWorld(eng, mpi.Config{Size: ranks, RanksPerNode: (ranks + nodes - 1) / nodes})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(eng, StoreConfig{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return eng, w, st
}

func TestInitValidation(t *testing.T) {
	eng, w, st := harness(t, 3, 3)
	err := w.Run(func(r *mpi.Rank) {
		if _, err := Init(Config{GroupSize: 2}, r, nil, st); err == nil {
			t.Error("group size not dividing world accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = eng
}

func TestStoreValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewStore(eng, StoreConfig{Nodes: 0}); err == nil {
		t.Fatal("zero-node store accepted")
	}
}

func TestProtectDuplicateID(t *testing.T) {
	_, w, st := harness(t, 1, 1)
	err := w.Run(func(r *mpi.Rank) {
		f, err := Init(Config{GroupSize: 1}, r, nil, st)
		if err != nil {
			t.Error(err)
			return
		}
		buf := gpu.HostAlloc(64)
		if err := f.Protect(1, buf); err != nil {
			t.Error(err)
		}
		if err := f.Protect(1, buf); err == nil {
			t.Error("duplicate protect id accepted")
		}
		n := 0
		if err := f.ProtectCounter(1, &n); err == nil {
			t.Error("duplicate counter id accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHostCheckpointRecoverL1(t *testing.T) {
	_, w, st := harness(t, 2, 2)
	payload := []byte("state-of-rank-")
	// Run 1: checkpoint.
	err := w.Run(func(r *mpi.Rank) {
		f, err := Init(Config{GroupSize: 2}, r, nil, st)
		if err != nil {
			t.Error(err)
			return
		}
		buf := gpu.HostAlloc(16)
		copy(buf.Data(), append(payload, byte('0'+r.Rank())))
		if err := f.Protect(1, buf); err != nil {
			t.Error(err)
			return
		}
		if err := f.CheckpointAt(7, L1); err != nil {
			t.Error(err)
		}
		f.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run 2: restart and recover.
	eng2 := sim.NewEngine()
	w2, _ := mpi.NewWorld(eng2, mpi.Config{Size: 2, RanksPerNode: 1})
	// Store must persist across runs but its pipes belong to the old
	// engine; rebind to the new engine.
	st.Rebind(eng2)
	err = w2.Run(func(r *mpi.Rank) {
		f, err := Init(Config{GroupSize: 2}, r, nil, st)
		if err != nil {
			t.Error(err)
			return
		}
		if !f.restart {
			t.Error("restart not detected")
			return
		}
		buf := gpu.HostAlloc(16)
		if err := f.Protect(1, buf); err != nil {
			t.Error(err)
			return
		}
		iter, recovered, err := f.Snapshot(0)
		if err != nil {
			t.Error(err)
			return
		}
		if !recovered || iter != 7 {
			t.Errorf("recovered=%v iter=%d, want true, 7", recovered, iter)
			return
		}
		want := append(append([]byte(nil), payload...), byte('0'+r.Rank()))
		if !bytes.Equal(buf.Data()[:len(want)], want) {
			t.Errorf("rank %d recovered %q want %q", r.Rank(), buf.Data()[:len(want)], want)
		}
		f.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestL2SurvivesNodeLoss(t *testing.T) {
	_, w, st := harness(t, 4, 4)
	err := w.Run(func(r *mpi.Rank) {
		f, _ := Init(Config{GroupSize: 4}, r, nil, st)
		buf := gpu.HostAlloc(32)
		for i := range buf.Data() {
			buf.Data()[i] = byte(r.Rank()*10 + i%10)
		}
		_ = f.Protect(1, buf)
		if err := f.CheckpointAt(3, L2); err != nil {
			t.Error(err)
		}
		f.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 (rank 1) dies: its L1 files vanish; its partner (rank 2) holds
	// the L2 copy.
	st.FailNode(1)
	eng2 := sim.NewEngine()
	st.Rebind(eng2)
	w2, _ := mpi.NewWorld(eng2, mpi.Config{Size: 4, RanksPerNode: 1})
	err = w2.Run(func(r *mpi.Rank) {
		f, _ := Init(Config{GroupSize: 4}, r, nil, st)
		buf := gpu.HostAlloc(32)
		_ = f.Protect(1, buf)
		iter, err := f.Recover()
		if err != nil {
			t.Errorf("rank %d recover: %v", r.Rank(), err)
			return
		}
		if iter != 3 {
			t.Errorf("iter: got %d want 3", iter)
		}
		for i := range buf.Data() {
			if buf.Data()[i] != byte(r.Rank()*10+i%10) {
				t.Errorf("rank %d: corrupted recovery at byte %d", r.Rank(), i)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestL3ReconstructsFromParity(t *testing.T) {
	_, w, st := harness(t, 4, 4)
	err := w.Run(func(r *mpi.Rank) {
		f, _ := Init(Config{GroupSize: 4}, r, nil, st)
		buf := gpu.HostAlloc(64)
		for i := range buf.Data() {
			buf.Data()[i] = byte((r.Rank()*37 + i*3) % 251)
		}
		_ = f.Protect(1, buf)
		if err := f.CheckpointAt(9, L3); err != nil {
			t.Error(err)
		}
		f.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 dies. Rank 3's L1 is gone AND its L2 partner copy lives on
	// rank 0's node (partner of 3 is 0)... so wipe node 0's l2 entry by
	// failing only node 3 — rank 3's L2 copy is on node 0 and survives.
	// To force the L3 path, fail node 0 instead: rank 0 loses L1, and its
	// L2 copy (held by partner rank 1... on node 1) survives. To force RS,
	// fail both the rank's node and its partner's node L2 copy is on:
	// rank 0's copy is on node 1. Fail nodes 0 and 1 → rank 0 must use L3
	// (reconstruct from ranks 2, 3 shards + parity on node 1... gone too).
	// Parity lives on node of member[1] = node 1 — also gone. So instead:
	// fail only node 2: rank 2 loses L1; its L2 copy is on node 3 (alive).
	// For a pure L3 test, delete rank 2's L1 and L2 copies directly.
	delete(st.nodes[2].files, "l1/ck1/r2/v1")
	delete(st.nodes[3].files, "l2/ck1/r2/v1")
	eng2 := sim.NewEngine()
	st.Rebind(eng2)
	w2, _ := mpi.NewWorld(eng2, mpi.Config{Size: 4, RanksPerNode: 1})
	err = w2.Run(func(r *mpi.Rank) {
		if r.Rank() != 2 {
			return
		}
		f, _ := Init(Config{GroupSize: 4}, r, nil, st)
		buf := gpu.HostAlloc(64)
		_ = f.Protect(1, buf)
		meta, ok := st.lastMeta(2)
		if !ok {
			t.Error("no meta for rank 2")
			return
		}
		fl, err := f.locateVar(meta, 1)
		if err != nil {
			t.Errorf("L3 locate: %v", err)
			return
		}
		for i := 0; i < 64; i++ {
			want := byte((2*37 + i*3) % 251)
			if fl.data[i] != want {
				t.Errorf("reconstructed byte %d: got %d want %d", i, fl.data[i], want)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestL4GlobalSurvivesEverything(t *testing.T) {
	_, w, st := harness(t, 2, 2)
	err := w.Run(func(r *mpi.Rank) {
		f, _ := Init(Config{GroupSize: 2}, r, nil, st)
		buf := gpu.HostAlloc(16)
		copy(buf.Data(), []byte("l4-data-rank-0-x"))
		_ = f.Protect(1, buf)
		if err := f.CheckpointAt(5, L4); err != nil {
			t.Error(err)
		}
		f.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	st.FailNode(0)
	st.FailNode(1)
	eng2 := sim.NewEngine()
	st.Rebind(eng2)
	w2, _ := mpi.NewWorld(eng2, mpi.Config{Size: 2, RanksPerNode: 1})
	err = w2.Run(func(r *mpi.Rank) {
		f, _ := Init(Config{GroupSize: 2}, r, nil, st)
		buf := gpu.HostAlloc(16)
		_ = f.Protect(1, buf)
		if _, err := f.Recover(); err != nil {
			t.Errorf("rank %d L4 recover: %v", r.Rank(), err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeviceAndManagedCheckpoint(t *testing.T) {
	eng, w, st := harness(t, 1, 1)
	err := w.Run(func(r *mpi.Rank) {
		dev := gpu.New(eng, gpu.Config{})
		f, _ := Init(Config{GroupSize: 1, Method: Async}, r, dev, st)
		db, _ := dev.Malloc(1 << 20)
		mb, _ := dev.MallocManaged(1 << 20)
		for i := range mb.Data() {
			mb.Data()[i] = byte(i % 127)
		}
		// Fill device buffer through a kernel (host cannot touch it).
		dev.Launch(r.Proc(), 0.001, func() {
			d := db.DeviceData()
			for i := range d {
				d[i] = byte(i % 31)
			}
		})
		_ = f.Protect(1, db)
		_ = f.Protect(2, mb)
		if err := f.CheckpointAt(1, L1); err != nil {
			t.Error(err)
			return
		}
		// Clobber both, then recover.
		dev.Launch(r.Proc(), 0.001, func() {
			for i := range db.DeviceData() {
				db.DeviceData()[i] = 0
			}
			for i := range mb.DeviceData() {
				mb.DeviceData()[i] = 0
			}
		})
		if _, err := f.Recover(); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 1<<20; i++ {
			if db.DeviceData()[i] != byte(i%31) {
				t.Errorf("device byte %d corrupt", i)
				return
			}
			if mb.Data()[i] != byte(i%127) {
				t.Errorf("managed byte %d corrupt", i)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAsyncFasterThanInitial(t *testing.T) {
	const size = 4 << 30 // 4 GB phantom managed buffer
	measure := func(m Method) sim.Time {
		eng, w, _ := func() (*sim.Engine, *mpi.World, *Store) {
			eng := sim.NewEngine()
			w, _ := mpi.NewWorld(eng, mpi.Config{Size: 1})
			return eng, w, nil
		}()
		st, _ := NewStore(eng, StoreConfig{Nodes: 1, NVMeWriteGBps: 4, NVMeReadGBps: 4})
		var took sim.Time
		if err := w.Run(func(r *mpi.Rank) {
			dev := gpu.New(eng, gpu.Config{MemBytes: 8 << 30})
			f, _ := Init(Config{GroupSize: 1, Method: m}, r, dev, st)
			buf, err := dev.MallocManagedPhantom(size)
			if err != nil {
				t.Error(err)
				return
			}
			_ = f.Protect(1, buf)
			start := r.Proc().Now()
			if err := f.CheckpointAt(1, L1); err != nil {
				t.Error(err)
				return
			}
			took = r.Proc().Now() - start
		}); err != nil {
			t.Fatal(err)
		}
		return took
	}
	initial := measure(Initial)
	async := measure(Async)
	ratio := float64(initial) / float64(async)
	// Paper Sec. IV: 12.05× checkpoint-overhead reduction.
	if ratio < 9 || ratio > 15 {
		t.Fatalf("initial/async checkpoint ratio %.2f, want ≈12 (initial %v, async %v)",
			ratio, initial, async)
	}
}

func TestSnapshotSchedule(t *testing.T) {
	_, w, st := harness(t, 1, 1)
	err := w.Run(func(r *mpi.Rank) {
		f, _ := Init(Config{GroupSize: 1, CkptEvery: 3}, r, nil, st)
		buf := gpu.HostAlloc(8)
		_ = f.Protect(1, buf)
		for i := 0; i < 9; i++ {
			if _, _, err := f.Snapshot(i); err != nil {
				t.Error(err)
				return
			}
		}
		if f.Stats.Checkpoints != 3 {
			t.Errorf("checkpoints: got %d want 3 (every 3rd of 9 snapshots)", f.Stats.Checkpoints)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLevelSchedule(t *testing.T) {
	_, w, st := harness(t, 2, 2)
	err := w.Run(func(r *mpi.Rank) {
		f, _ := Init(Config{GroupSize: 2, L2Every: 2, L3Every: 4, L4Every: 8}, r, nil, st)
		want := map[int]Level{1: L1, 2: L2, 3: L1, 4: L3, 5: L1, 6: L2, 7: L1, 8: L4}
		for c := 1; c <= 8; c++ {
			if got := f.levelFor(c); got != want[c] {
				t.Errorf("level for checkpoint %d: got %v want %v", c, got, want[c])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecoverWithoutCheckpointFails(t *testing.T) {
	_, w, st := harness(t, 1, 1)
	err := w.Run(func(r *mpi.Rank) {
		f, _ := Init(Config{GroupSize: 1}, r, nil, st)
		buf := gpu.HostAlloc(8)
		_ = f.Protect(1, buf)
		if _, err := f.Recover(); err == nil {
			t.Error("recover without checkpoint succeeded")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
