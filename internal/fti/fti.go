package fti

import (
	"encoding/binary"
	"fmt"

	"legato/internal/gpu"
	"legato/internal/mpi"
	"legato/internal/sim"
)

// Level is a checkpoint durability level, as in FTI [9].
type Level int

const (
	// L1 writes to node-local NVMe: fastest, lost with the node.
	L1 Level = 1
	// L2 adds a partner copy on another node: survives one node loss.
	L2 Level = 2
	// L3 adds Reed-Solomon group encoding: survives one node loss per
	// encoding group without a full duplicate.
	L3 Level = 3
	// L4 writes to the global parallel file system: survives anything,
	// slowest, bandwidth shared by all nodes.
	L4 Level = 4
)

// Method selects the GPU/UVM data path of paper Sec. IV.
type Method int

const (
	// Initial is the first implementation: UVM data is fetched through
	// driver page faults and files are written strictly sequentially.
	Initial Method = iota
	// Async is the optimised implementation: chunked DMA copies on a
	// stream, overlapped with file writes ("speed up of 10X in comparison
	// with the initial implementation").
	Async
)

// String names the method.
func (m Method) String() string {
	if m == Async {
		return "async"
	}
	return "initial"
}

// Config parametrises one rank's FTI instance.
type Config struct {
	// Method selects the device-data checkpoint path.
	Method Method
	// GroupSize is the L2/L3 encoding-group size (default 4; must divide
	// the world size).
	GroupSize int
	// ChunkBytes is the async-path chunk size (default 64 MiB).
	ChunkBytes int64
	// CkptEvery takes a checkpoint every N Snapshot calls (default 10).
	CkptEvery int
	// L2Every/L3Every/L4Every escalate every k-th checkpoint to the given
	// level (0 disables). Defaults: L2 every 2nd, L3 every 4th, L4 never.
	L2Every, L3Every, L4Every int
}

func (c Config) withDefaults() Config {
	if c.GroupSize == 0 {
		c.GroupSize = 4
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 64 << 20
	}
	if c.CkptEvery == 0 {
		c.CkptEvery = 10
	}
	if c.L2Every == 0 {
		c.L2Every = 2
	}
	if c.L3Every == 0 {
		c.L3Every = 4
	}
	return c
}

// protected is one registered variable.
type protected struct {
	id  int
	buf *gpu.Buffer
	// counter is non-nil for ProtectCounter registrations.
	counter *int
}

// Stats accumulates per-rank checkpoint/recovery measurements.
type Stats struct {
	Checkpoints  int
	CkptTimes    []sim.Time
	RecoverTimes []sim.Time
	BytesWritten int64
}

// LastCkptTime returns the duration of the most recent checkpoint.
func (s *Stats) LastCkptTime() sim.Time {
	if len(s.CkptTimes) == 0 {
		return 0
	}
	return s.CkptTimes[len(s.CkptTimes)-1]
}

// LastRecoverTime returns the duration of the most recent recovery.
func (s *Stats) LastRecoverTime() sim.Time {
	if len(s.RecoverTimes) == 0 {
		return 0
	}
	return s.RecoverTimes[len(s.RecoverTimes)-1]
}

// FTI is one rank's checkpoint context (the FTI_Init..FTI_Finalize scope of
// Listing 1).
type FTI struct {
	cfg   Config
	rank  *mpi.Rank
	dev   *gpu.Device
	store *Store
	node  int

	prot      []*protected
	snapCount int
	ckptCount int
	restart   bool

	Stats Stats
}

// Init creates the rank's FTI context. If the store holds a committed
// checkpoint for this rank, the context starts in restart mode and the
// next Snapshot call recovers instead of checkpointing (matching
// FTI_Snapshot semantics). dev may be nil for CPU-only applications.
func Init(cfg Config, rank *mpi.Rank, dev *gpu.Device, store *Store) (*FTI, error) {
	cfg = cfg.withDefaults()
	if rank.Size()%cfg.GroupSize != 0 {
		return nil, fmt.Errorf("fti: group size %d does not divide world size %d", cfg.GroupSize, rank.Size())
	}
	node := rank.World().NodeOf(rank.Rank())
	if node >= store.Nodes() {
		return nil, fmt.Errorf("fti: rank %d on node %d but store has %d nodes", rank.Rank(), node, store.Nodes())
	}
	f := &FTI{cfg: cfg, rank: rank, dev: dev, store: store, node: node}
	if _, ok := store.lastMeta(rank.Rank()); ok {
		f.restart = true
	}
	return f, nil
}

// Protect registers a buffer for checkpointing under the given id. As in
// the paper's extension, the same call covers host, device and UVM
// buffers — the library dispatches on the address class internally.
func (f *FTI) Protect(id int, buf *gpu.Buffer) error {
	for _, p := range f.prot {
		if p.id == id {
			return fmt.Errorf("fti: id %d already protected", id)
		}
	}
	if buf.Kind != gpu.HostMem && buf.Dev != f.dev {
		return fmt.Errorf("fti: buffer %d lives on a different device", id)
	}
	f.prot = append(f.prot, &protected{id: id, buf: buf})
	return nil
}

// ProtectCounter registers an integer (typically the loop counter of
// Listing 1, line 12) so recovery can restore it.
func (f *FTI) ProtectCounter(id int, counter *int) error {
	for _, p := range f.prot {
		if p.id == id {
			return fmt.Errorf("fti: id %d already protected", id)
		}
	}
	f.prot = append(f.prot, &protected{id: id, counter: counter})
	return nil
}

// Snapshot is the per-iteration entry point (FTI_Snapshot). On a restarted
// run the first call performs recovery and returns recovered=true with the
// checkpointed iteration; otherwise it checkpoints every CkptEvery calls.
func (f *FTI) Snapshot(iter int) (resumeIter int, recovered bool, err error) {
	if f.restart {
		f.restart = false
		it, err := f.Recover()
		if err != nil {
			return iter, false, err
		}
		return it, true, nil
	}
	f.snapCount++
	if f.snapCount%f.cfg.CkptEvery == 0 {
		if err := f.Checkpoint(iter); err != nil {
			return iter, false, err
		}
	}
	return iter, false, nil
}

// levelFor picks the durability level of checkpoint number c.
func (f *FTI) levelFor(c int) Level {
	switch {
	case f.cfg.L4Every > 0 && c%f.cfg.L4Every == 0:
		return L4
	case f.cfg.L3Every > 0 && c%f.cfg.L3Every == 0:
		return L3
	case f.cfg.L2Every > 0 && c%f.cfg.L2Every == 0:
		return L2
	default:
		return L1
	}
}

// group returns this rank's encoding-group index and member ranks.
func (f *FTI) group() (idx int, members []int) {
	g := f.rank.Rank() / f.cfg.GroupSize
	for i := 0; i < f.cfg.GroupSize; i++ {
		members = append(members, g*f.cfg.GroupSize+i)
	}
	return g, members
}

// partner returns the rank holding this rank's L2 copy (next in group).
func (f *FTI) partner() int {
	g := f.rank.Rank() / f.cfg.GroupSize
	in := f.rank.Rank() % f.cfg.GroupSize
	return g*f.cfg.GroupSize + (in+1)%f.cfg.GroupSize
}

func l1Name(ckpt, rank, varID int) string { return fmt.Sprintf("l1/ck%d/r%d/v%d", ckpt, rank, varID) }
func l2Name(ckpt, rank, varID int) string { return fmt.Sprintf("l2/ck%d/r%d/v%d", ckpt, rank, varID) }
func l3Name(ckpt, group, varID int) string {
	return fmt.Sprintf("l3/ck%d/g%d/v%d/parity", ckpt, group, varID)
}
func l4Name(ckpt, rank, varID int) string { return fmt.Sprintf("l4/ck%d/r%d/v%d", ckpt, rank, varID) }

// Checkpoint takes a checkpoint of all protected data at the level chosen
// by the schedule. It is collective: every rank must call it at the same
// iteration.
func (f *FTI) Checkpoint(iter int) error {
	return f.CheckpointAt(iter, f.levelFor(f.ckptCount+1))
}

// CheckpointAt takes a checkpoint at an explicit level (collective).
func (f *FTI) CheckpointAt(iter int, level Level) error {
	p := f.rank.Proc()
	start := p.Now()
	f.ckptCount++
	ckptID := f.ckptCount

	var varIDs []int
	for _, pr := range f.prot {
		varIDs = append(varIDs, pr.id)
		fl, err := f.captureVar(pr)
		if err != nil {
			return fmt.Errorf("fti: rank %d capture var %d: %w", f.rank.Rank(), pr.id, err)
		}
		f.store.localPut(p, f.node, l1Name(ckptID, f.rank.Rank(), pr.id), fl, false, f.node)
		f.Stats.BytesWritten += fl.size

		if level >= L2 {
			partnerNode := f.rank.World().NodeOf(f.partner())
			cp := &file{data: cloneBytes(fl.data), size: fl.size, phantom: fl.phantom}
			f.store.localPut(p, partnerNode, l2Name(ckptID, f.rank.Rank(), pr.id), cp, partnerNode != f.node, f.node)
			f.Stats.BytesWritten += cp.size
		}
		if level == L4 {
			cp := &file{data: cloneBytes(fl.data), size: fl.size, phantom: fl.phantom}
			f.store.globalPut(p, l4Name(ckptID, f.rank.Rank(), pr.id), cp)
			f.Stats.BytesWritten += cp.size
		}
	}

	// L3: the group leader gathers the group's shards and writes parity.
	if level >= L3 {
		f.rank.Barrier() // all L1 files must exist before encoding
		if err := f.encodeGroupParity(ckptID); err != nil {
			return err
		}
	}

	f.rank.Barrier() // checkpoint commit is collective
	f.store.commitMeta(f.rank.Rank(), &rankMeta{
		CkptID: ckptID, Level: level, Iter: iter, VarIDs: varIDs,
	})
	f.Stats.Checkpoints++
	f.Stats.CkptTimes = append(f.Stats.CkptTimes, p.Now()-start)
	return nil
}

// captureVar produces the checkpoint file for one protected variable,
// charging the appropriate data-movement costs for its address class and
// the configured method.
func (f *FTI) captureVar(pr *protected) (*file, error) {
	p := f.rank.Proc()
	if pr.counter != nil {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(*pr.counter))
		return &file{data: buf, size: 8}, nil
	}
	b := pr.buf
	switch {
	case b.Kind == gpu.HostMem:
		// Host data: snapshot directly (memcpy cost folded into NVMe write).
		return &file{data: cloneBytes(b.Data()), size: b.Len()}, nil

	case f.cfg.Method == Initial:
		// Initial implementation: UVM pages fault across at driver speed;
		// device memory moves in one blocking DMA.
		dst := []byte(nil)
		if !b.Phantom() {
			dst = make([]byte, b.Len())
		}
		var err error
		if b.Kind == gpu.ManagedMem {
			err = f.dev.UVMFetchD2H(p, dst, b, 0, b.Len())
		} else {
			err = f.dev.MemcpyD2H(p, dst, b, 0, b.Len())
		}
		if err != nil {
			return nil, err
		}
		return &file{data: dst, size: b.Len(), phantom: b.Phantom()}, nil

	default:
		// Async: the file buffer fills chunk by chunk; the NVMe write of
		// chunk i overlaps the DMA of chunk i+1 (captureVar returns a
		// zero-copy file whose NVMe time was already charged per chunk;
		// the caller's localPut then costs ~nothing extra for the final
		// metadata, so we model the full overlap inside this function and
		// return a pre-written file).
		return f.captureAsync(b)
	}
}

// captureAsync streams a device/managed buffer to the local store with
// chunked DMA overlapped against NVMe writes, returning the resulting file
// with all I/O time already charged.
func (f *FTI) captureAsync(b *gpu.Buffer) (*file, error) {
	p := f.rank.Proc()
	var dst []byte
	if !b.Phantom() {
		dst = make([]byte, b.Len())
	}
	stream := f.dev.NewStream()
	nvme := f.store.nodes[f.node].write
	var pending int
	var wake func()
	var chunkErr error
	for off := int64(0); off < b.Len(); off += f.cfg.ChunkBytes {
		n := f.cfg.ChunkBytes
		if off+n > b.Len() {
			n = b.Len() - off
		}
		var window []byte
		if dst != nil {
			window = dst[off : off+n]
		}
		size := n
		pending++
		if err := stream.MemcpyD2HAsync(window, b, off, size, func() {
			nvme.Transfer(size, func() {
				pending--
				if pending == 0 && wake != nil {
					w := wake
					wake = nil
					w()
				}
			})
		}); err != nil {
			chunkErr = err
			pending--
			break
		}
	}
	if chunkErr != nil {
		return nil, chunkErr
	}
	stream.Synchronize(p)
	if pending > 0 {
		p.Await(func(done func()) { wake = done })
	}
	return &file{data: dst, size: b.Len(), phantom: b.Phantom(), preWritten: true}, nil
}

// encodeGroupParity has the group leader read the group's L1 shards and
// store a Reed-Solomon parity shard on the node after the leader's
// (spreading parity away from the data it protects).
func (f *FTI) encodeGroupParity(ckptID int) error {
	g, members := f.group()
	leader := members[0]
	if f.rank.Rank() != leader {
		return nil
	}
	p := f.rank.Proc()
	world := f.rank.World()
	for _, pr := range f.prot {
		shards := make([][]byte, 0, len(members))
		maxSize := int64(0)
		phantom := false
		for _, m := range members {
			node := world.NodeOf(m)
			fl, ok := f.store.localGet(p, node, l1Name(ckptID, m, pr.id), node != f.node, f.node)
			if !ok {
				return fmt.Errorf("fti: L3 encode missing shard of rank %d var %d", m, pr.id)
			}
			if fl.size > maxSize {
				maxSize = fl.size
			}
			phantom = phantom || fl.phantom
			shards = append(shards, fl.data)
		}
		parity := &file{size: maxSize, phantom: true}
		if !phantom {
			padded := make([][]byte, len(shards))
			for i, s := range shards {
				ps := make([]byte, maxSize)
				copy(ps, s)
				padded[i] = ps
			}
			par, err := encodeParity(padded)
			if err != nil {
				return fmt.Errorf("fti: L3 encode group %d var %d: %w", g, pr.id, err)
			}
			parity = &file{data: par, size: maxSize}
		}
		parityNode := world.NodeOf(members[1%len(members)])
		f.store.localPut(p, parityNode, l3Name(ckptID, g, pr.id), parity, parityNode != f.node, f.node)
		f.Stats.BytesWritten += parity.size
	}
	return nil
}

// Finalize ends the checkpoint context. Matching FTI_Finalize, it is a
// barrier so all ranks leave together.
func (f *FTI) Finalize() { f.rank.Barrier() }
