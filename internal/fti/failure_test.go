package fti

import (
	"testing"

	"legato/internal/gpu"
	"legato/internal/mpi"
	"legato/internal/sim"
)

// TestL1OnlyNodeLossIsUnrecoverable: with pure L1 checkpoints, losing the
// node loses the data — the reason the higher levels exist.
func TestL1OnlyNodeLossIsUnrecoverable(t *testing.T) {
	_, w, st := harness(t, 2, 2)
	err := w.Run(func(r *mpi.Rank) {
		f, _ := Init(Config{GroupSize: 2}, r, nil, st)
		buf := gpu.HostAlloc(32)
		_ = f.Protect(1, buf)
		if err := f.CheckpointAt(1, L1); err != nil {
			t.Error(err)
		}
		f.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	st.FailNode(0)
	eng2 := sim.NewEngine()
	st.Rebind(eng2)
	w2, _ := mpi.NewWorld(eng2, mpi.Config{Size: 2, RanksPerNode: 1})
	errs := make([]error, 2)
	_ = w2.Run(func(r *mpi.Rank) {
		f, _ := Init(Config{GroupSize: 2}, r, nil, st)
		buf := gpu.HostAlloc(32)
		_ = f.Protect(1, buf)
		_, errs[r.Rank()] = f.Recover()
	})
	if errs[0] == nil {
		t.Fatal("rank 0 recovered from a lost L1-only checkpoint")
	}
}

// TestCounterSurvivesLevels: the protected loop counter of Listing 1 round
// trips through every level.
func TestCounterSurvivesLevels(t *testing.T) {
	for _, level := range []Level{L1, L2, L3, L4} {
		level := level
		_, w, st := harness(t, 4, 4)
		err := w.Run(func(r *mpi.Rank) {
			f, _ := Init(Config{GroupSize: 4}, r, nil, st)
			iter := 1234 + r.Rank()
			_ = f.ProtectCounter(0, &iter)
			if err := f.CheckpointAt(iter, level); err != nil {
				t.Errorf("level %d: %v", level, err)
				return
			}
			iter = -1 // clobber
			if _, err := f.Recover(); err != nil {
				t.Errorf("level %d recover: %v", level, err)
				return
			}
			if iter != 1234+r.Rank() {
				t.Errorf("level %d: counter %d, want %d", level, iter, 1234+r.Rank())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointBytesAccounting: store-level traffic accounting grows with
// level (L2 doubles, L3 adds parity, L4 adds a global copy).
func TestCheckpointBytesAccounting(t *testing.T) {
	sizes := map[Level]int64{}
	for _, level := range []Level{L1, L2, L3, L4} {
		level := level
		_, w, st := harness(t, 4, 4)
		err := w.Run(func(r *mpi.Rank) {
			f, _ := Init(Config{GroupSize: 4}, r, nil, st)
			buf := gpu.HostAlloc(1 << 16)
			_ = f.Protect(1, buf)
			if err := f.CheckpointAt(1, level); err != nil {
				t.Error(err)
			}
			f.Finalize()
		})
		if err != nil {
			t.Fatal(err)
		}
		// Checkpoint traffic: what the NVMe and PFS write pipes carried.
		sizes[level] = st.pfsWrite.Transferred
		for _, n := range st.nodes {
			sizes[level] += n.write.Transferred
		}
	}
	if !(sizes[L1] < sizes[L2] && sizes[L1] < sizes[L3] && sizes[L2] < sizes[L4]) {
		t.Fatalf("level traffic ordering wrong: %v", sizes)
	}
	// L1: 4 ranks × 64 KiB.
	if sizes[L1] != 4<<16 {
		t.Fatalf("L1 bytes: %d", sizes[L1])
	}
	// L2: twice that.
	if sizes[L2] != 8<<16 {
		t.Fatalf("L2 bytes: %d", sizes[L2])
	}
}

// TestSnapshotAfterRecoveryContinuesSchedule: after a restart, later
// snapshots checkpoint again with increasing ids.
func TestSnapshotAfterRecoveryContinuesSchedule(t *testing.T) {
	_, w, st := harness(t, 1, 1)
	err := w.Run(func(r *mpi.Rank) {
		f, _ := Init(Config{GroupSize: 1, CkptEvery: 2}, r, nil, st)
		buf := gpu.HostAlloc(16)
		_ = f.Protect(1, buf)
		for i := 0; i < 4; i++ {
			if _, _, err := f.Snapshot(i); err != nil {
				t.Error(err)
			}
		}
		f.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := sim.NewEngine()
	st.Rebind(eng2)
	w2, _ := mpi.NewWorld(eng2, mpi.Config{Size: 1})
	err = w2.Run(func(r *mpi.Rank) {
		f, _ := Init(Config{GroupSize: 1, CkptEvery: 2}, r, nil, st)
		buf := gpu.HostAlloc(16)
		_ = f.Protect(1, buf)
		recovered := false
		for i := 0; i < 6; i++ {
			_, rec, err := f.Snapshot(i)
			if err != nil {
				t.Error(err)
				return
			}
			recovered = recovered || rec
		}
		if !recovered {
			t.Error("restart did not recover")
		}
		// The first Snapshot call performs the recovery; the remaining 5
		// count toward the schedule: at CkptEvery=2 that is 2 checkpoints.
		if f.Stats.Checkpoints != 2 {
			t.Errorf("post-recovery checkpoints: %d", f.Stats.Checkpoints)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPhantomAndRealMixed: phantom and real buffers can coexist in one
// checkpoint set.
func TestPhantomAndRealMixed(t *testing.T) {
	eng, w, st := harness(t, 1, 1)
	err := w.Run(func(r *mpi.Rank) {
		dev := gpu.New(eng, gpu.Config{})
		f, _ := Init(Config{GroupSize: 1, Method: Async}, r, dev, st)
		real := gpu.HostAlloc(128)
		copy(real.Data(), []byte("real-data"))
		ph, _ := dev.MallocManagedPhantom(1 << 20)
		_ = f.Protect(1, real)
		_ = f.Protect(2, ph)
		if err := f.CheckpointAt(1, L1); err != nil {
			t.Error(err)
			return
		}
		copy(real.Data(), make([]byte, 16)) // clobber
		if _, err := f.Recover(); err != nil {
			t.Error(err)
			return
		}
		if string(real.Data()[:9]) != "real-data" {
			t.Errorf("real data corrupted: %q", real.Data()[:9])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
