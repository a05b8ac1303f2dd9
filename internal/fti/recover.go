package fti

import (
	"encoding/binary"
	"fmt"

	"legato/internal/gpu"
	"legato/internal/rs"
)

// encodeParity computes the single RS parity shard for a group of
// equal-sized data shards.
func encodeParity(shards [][]byte) ([]byte, error) {
	code, err := rs.New(len(shards), 1)
	if err != nil {
		return nil, err
	}
	parity, err := code.Encode(shards)
	if err != nil {
		return nil, err
	}
	return parity[0], nil
}

// Recover restores every protected variable from the rank's last committed
// checkpoint, searching levels from cheapest to most durable:
// L1 local NVMe → L2 partner copy → L3 RS reconstruction → L4 global.
// It is collective and returns the checkpointed iteration.
func (f *FTI) Recover() (iter int, err error) {
	p := f.rank.Proc()
	start := p.Now()
	meta, ok := f.store.lastMeta(f.rank.Rank())
	if !ok {
		return 0, fmt.Errorf("fti: rank %d has no committed checkpoint", f.rank.Rank())
	}
	for _, pr := range f.prot {
		fl, err := f.locateVar(meta, pr.id)
		if err != nil {
			return 0, fmt.Errorf("fti: rank %d var %d: %w", f.rank.Rank(), pr.id, err)
		}
		if err := f.restoreVar(pr, fl); err != nil {
			return 0, fmt.Errorf("fti: rank %d restore var %d: %w", f.rank.Rank(), pr.id, err)
		}
	}
	// Resume bookkeeping: future checkpoints continue the sequence.
	f.ckptCount = meta.CkptID
	f.snapCount = 0
	f.rank.Barrier()
	f.Stats.RecoverTimes = append(f.Stats.RecoverTimes, p.Now()-start)
	return meta.Iter, nil
}

// locateVar finds (and pays the I/O for) the best surviving copy of a
// variable's checkpoint file.
func (f *FTI) locateVar(meta *rankMeta, varID int) (*file, error) {
	p := f.rank.Proc()
	world := f.rank.World()
	rank := f.rank.Rank()

	// L1: our node's local copy.
	if fl, ok := f.store.localGet(p, f.node, l1Name(meta.CkptID, rank, varID), false, f.node); ok {
		return fl, nil
	}
	// L2: the partner's node holds our copy.
	if meta.Level >= L2 {
		partnerNode := world.NodeOf(f.partner())
		if fl, ok := f.store.localGet(p, partnerNode, l2Name(meta.CkptID, rank, varID), partnerNode != f.node, f.node); ok {
			return fl, nil
		}
	}
	// L3: reconstruct from the surviving group shards plus parity.
	if meta.Level >= L3 {
		if fl, err := f.reconstructL3(meta, varID); err == nil {
			return fl, nil
		}
	}
	// L4: global store.
	if meta.Level >= L4 {
		if fl, ok := f.store.globalGet(p, l4Name(meta.CkptID, rank, varID)); ok {
			return fl, nil
		}
	}
	return nil, fmt.Errorf("no surviving copy of checkpoint %d (level %d)", meta.CkptID, meta.Level)
}

// reconstructL3 rebuilds this rank's shard from the group's surviving L1
// files and the parity shard.
func (f *FTI) reconstructL3(meta *rankMeta, varID int) (*file, error) {
	p := f.rank.Proc()
	world := f.rank.World()
	g, members := f.group()
	k := len(members)

	shards := make([][]byte, k+1)
	present := 0
	phantom := false
	maxSize := int64(0)
	for i, m := range members {
		node := world.NodeOf(m)
		fl, ok := f.store.localGet(p, node, l1Name(meta.CkptID, m, varID), node != f.node, f.node)
		if !ok {
			continue
		}
		present++
		phantom = phantom || fl.phantom
		shards[i] = fl.data
		if fl.size > maxSize {
			maxSize = fl.size
		}
	}
	parityNode := world.NodeOf(members[1%k])
	if fl, ok := f.store.localGet(p, parityNode, l3Name(meta.CkptID, g, varID), parityNode != f.node, f.node); ok {
		present++
		phantom = phantom || fl.phantom
		shards[k] = fl.data
		if fl.size > maxSize {
			maxSize = fl.size
		}
	}
	if present < k {
		return nil, fmt.Errorf("L3 reconstruction impossible: %d of %d shards survive", present, k+1)
	}
	mine := f.rank.Rank() % f.cfg.GroupSize
	if phantom {
		// Size-only model: reconstruction feasibility was checked; charge
		// is the shard reads already performed.
		return &file{size: maxSize, phantom: true}, nil
	}
	code, err := rs.New(k, 1)
	if err != nil {
		return nil, err
	}
	padded := make([][]byte, k+1)
	for i, s := range shards {
		if s == nil {
			continue
		}
		ps := make([]byte, maxSize)
		copy(ps, s)
		padded[i] = ps
	}
	if err := code.Reconstruct(padded); err != nil {
		return nil, err
	}
	return &file{data: padded[mine], size: maxSize}, nil
}

// restoreVar pushes recovered bytes back into the protected variable,
// charging the method-dependent movement cost (the reverse of captureVar).
func (f *FTI) restoreVar(pr *protected, fl *file) error {
	p := f.rank.Proc()
	if pr.counter != nil {
		if len(fl.data) < 8 {
			return fmt.Errorf("counter checkpoint too small (%d bytes)", len(fl.data))
		}
		*pr.counter = int(binary.LittleEndian.Uint64(fl.data))
		return nil
	}
	b := pr.buf
	if fl.size < b.Len() {
		return fmt.Errorf("checkpoint holds %d bytes, buffer needs %d", fl.size, b.Len())
	}
	switch {
	case b.Kind == gpu.HostMem:
		copy(b.Data(), fl.data[:b.Len()])
		return nil

	case f.cfg.Method == Initial:
		// Initial implementation: sequential read (already charged by
		// locateVar) then page-fault or blocking-DMA population.
		src := fl.data
		if b.Phantom() {
			src = nil
		}
		if b.Kind == gpu.ManagedMem {
			return f.dev.UVMPopulateH2D(p, b, 0, src, b.Len())
		}
		return f.dev.MemcpyH2D(p, b, 0, src, b.Len())

	default:
		return f.restoreAsync(b, fl)
	}
}

// restoreAsync streams file data back to the device in chunks; the H2D DMA
// of chunk i overlaps the (already-modelled) read of chunk i+1. Because
// locateVar charged the full sequential read, we overlap by refunding
// nothing and charging only the *excess* of DMA over read — in practice
// DMA (11 GB/s) is faster than NVMe reads (4 GB/s per process), so the
// async restore adds only the final chunk's DMA latency. We model that by
// charging a single chunk DMA on top of the read.
func (f *FTI) restoreAsync(b *gpu.Buffer, fl *file) error {
	p := f.rank.Proc()
	stream := f.dev.NewStream()
	n := f.cfg.ChunkBytes
	if n > b.Len() {
		n = b.Len()
	}
	// Real data: populate the whole buffer now (correctness), but charge
	// only one chunk of DMA time (pipelined overlap with the read).
	if !b.Phantom() && fl.data != nil {
		copy(b.DeviceData(), fl.data[:b.Len()])
	}
	var window []byte
	if !b.Phantom() && fl.data != nil {
		window = fl.data[:n]
	}
	if err := stream.MemcpyH2DAsync(b, 0, window, n, nil); err != nil {
		return err
	}
	stream.Synchronize(p)
	return nil
}
