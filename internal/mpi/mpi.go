// Package mpi simulates the Message Passing Interface surface ZeroSum
// integrates with: communicator rank/size discovery (MPI_Initialized,
// MPI_Comm_rank/size), point-to-point sends and receives with PMPI-style
// interception for byte accounting (paper §3.1.3, Figure 5's heatmap), and
// the unbound MPI progress/helper thread that shows up as an "Other" LWP in
// the paper's tables.
//
// Ranks may live on one kernel (one node) or across several kernels sharing
// one event queue (multi-node jobs); message timing uses a latency +
// bandwidth model with distinct intra- and inter-node parameters.
package mpi

import (
	"fmt"

	"zerosum/internal/sched"
	"zerosum/internal/sim"
)

// NetParams models the interconnect.
type NetParams struct {
	IntraNodeLatency sim.Time
	InterNodeLatency sim.Time
	IntraNodeBW      float64 // bytes/sec
	InterNodeBW      float64
	// NICBytesPerSec caps each node's injection/ejection bandwidth;
	// concurrent inter-node transfers through one NIC queue behind each
	// other, which is how "noisy neighbours" (Bhatele et al., cited in
	// the paper's motivation) turn into latency variability. 0 disables
	// the model.
	NICBytesPerSec float64
}

// DefaultNet returns Slingshot-flavoured defaults.
func DefaultNet() NetParams {
	return NetParams{
		IntraNodeLatency: 800 * sim.Nanosecond,
		InterNodeLatency: 2 * sim.Microsecond,
		IntraNodeBW:      80e9,
		InterNodeBW:      25e9,
	}
}

// P2PKind distinguishes the direction of an intercepted call.
type P2PKind int

// Directions seen by the interception hook.
const (
	OpSend P2PKind = iota
	OpRecv
)

// P2PHook is the PMPI-style wrapper callback ZeroSum registers: it fires on
// every point-to-point call with the peer rank and payload size.
type P2PHook func(kind P2PKind, peer int, bytes uint64)

// World is a simulated MPI_COMM_WORLD.
type World struct {
	Q    *sim.Queue
	Net  NetParams
	size int

	ranks []*Rank
	// recvMatrix[dst][src] accumulates bytes received, the Figure 5 data.
	recvMatrix [][]uint64
	// nicBusy serializes inter-node transfers through each node's NIC
	// (keyed by kernel).
	nicBusy map[*sched.Kernel]sim.Time
}

// NewWorld creates a communicator of the given size.
func NewWorld(q *sim.Queue, size int, net NetParams) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	m := make([][]uint64, size)
	for i := range m {
		m[i] = make([]uint64, size)
	}
	return &World{Q: q, Net: net, size: size, ranks: make([]*Rank, size),
		recvMatrix: m, nicBusy: make(map[*sched.Kernel]sim.Time)}
}

// Size returns the communicator size.
func (w *World) Size() int { return w.size }

// Rank returns the attached rank r, or nil.
func (w *World) Rank(r int) *Rank {
	if r < 0 || r >= w.size {
		return nil
	}
	return w.ranks[r]
}

// RecvMatrix returns the rank x rank received-bytes matrix
// (matrix[dst][src]); the caller must not mutate it.
func (w *World) RecvMatrix() [][]uint64 { return w.recvMatrix }

// TotalBytes returns the sum of all received bytes.
func (w *World) TotalBytes() uint64 {
	var total uint64
	for _, row := range w.recvMatrix {
		for _, v := range row {
			total += v
		}
	}
	return total
}

// Rank is one MPI process's communicator endpoint.
type Rank struct {
	World *World
	ID    int
	K     *sched.Kernel
	Proc  *sched.Process

	initialized bool
	hooks       []P2PHook
	inbox       map[int]*sched.Gate // keyed by source rank
	pendingRecv map[int][]uint64    // byte sizes queued per source
}

// Attach binds rank id to a process on a kernel. It must be called once per
// rank before any communication.
func (w *World) Attach(id int, k *sched.Kernel, p *sched.Process) *Rank {
	if id < 0 || id >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", id, w.size))
	}
	if w.ranks[id] != nil {
		panic(fmt.Sprintf("mpi: rank %d attached twice", id))
	}
	r := &Rank{
		World:       w,
		ID:          id,
		K:           k,
		Proc:        p,
		inbox:       make(map[int]*sched.Gate),
		pendingRecv: make(map[int][]uint64),
	}
	w.ranks[id] = r
	return r
}

// Init marks MPI as initialized for this rank (what MPI_Init does); the
// monitor polls Initialized before reading rank/size, as ZeroSum's
// asynchronous thread does.
func (r *Rank) Init() { r.initialized = true }

// Initialized reports whether MPI_Init has run.
func (r *Rank) Initialized() bool { return r.initialized }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.World.size }

// Hostname returns the node name this rank runs on.
func (r *Rank) Hostname() string { return r.K.Hostname() }

// OnP2P registers an interception hook (ZeroSum's MPI wrapper).
func (r *Rank) OnP2P(h P2PHook) { r.hooks = append(r.hooks, h) }

func (r *Rank) fire(kind P2PKind, peer int, bytes uint64) {
	for _, h := range r.hooks {
		h(kind, peer, bytes)
	}
}

func (r *Rank) gateFor(src int) *sched.Gate {
	g, ok := r.inbox[src]
	if !ok {
		g = r.K.NewGate()
		r.inbox[src] = g
	}
	return g
}

// transferTime computes message delivery delay between two ranks,
// including queueing behind other traffic on either endpoint's NIC for
// inter-node messages.
func (w *World) transferTime(src, dst *Rank, bytes uint64) sim.Time {
	sameNode := src.K == dst.K
	lat := w.Net.InterNodeLatency
	bw := w.Net.InterNodeBW
	if sameNode {
		lat = w.Net.IntraNodeLatency
		bw = w.Net.IntraNodeBW
	}
	wire := lat
	if bw > 0 {
		wire += sim.Time(float64(bytes) / bw * float64(sim.Second))
	}
	if sameNode || w.Net.NICBytesPerSec <= 0 {
		return wire
	}
	// NIC serialization: the transfer occupies both endpoints' NICs for
	// bytes/NICbw; it starts when both are free.
	now := w.Q.Now()
	start := now
	if b := w.nicBusy[src.K]; b > start {
		start = b
	}
	if b := w.nicBusy[dst.K]; b > start {
		start = b
	}
	occupy := sim.Time(float64(bytes) / w.Net.NICBytesPerSec * float64(sim.Second))
	end := start + occupy
	w.nicBusy[src.K] = end
	w.nicBusy[dst.K] = end
	total := end - now + lat
	if total < wire {
		total = wire
	}
	return total
}

// Send transmits bytes to rank dst: accounting fires immediately (the PMPI
// wrapper runs in the caller), and delivery is scheduled after the
// latency/bandwidth delay. It is asynchronous, like an eager-protocol
// MPI_Send that returns once the payload is buffered.
func (r *Rank) Send(dst int, bytes uint64) error {
	if dst < 0 || dst >= r.World.size {
		return fmt.Errorf("mpi: send to invalid rank %d (size %d)", dst, r.World.size)
	}
	peer := r.World.Rank(dst)
	if peer == nil {
		return fmt.Errorf("mpi: rank %d not attached yet; attach every rank before starting tasks", dst)
	}
	r.fire(OpSend, dst, bytes)
	delay := r.World.transferTime(r, peer, bytes)
	src := r.ID
	r.World.Q.After(delay, func(sim.Time) {
		peer.pendingRecv[src] = append(peer.pendingRecv[src], bytes)
		peer.gateFor(src).Signal(1)
	})
	return nil
}

// SendAction wraps Send as a behavior action.
func (r *Rank) SendAction(dst int, bytes uint64) sched.Action {
	return sched.Call{Fn: func(sim.Time) {
		if err := r.Send(dst, bytes); err != nil {
			panic(err)
		}
	}}
}

// RecvAction blocks the calling task until a message from src arrives, then
// records the received bytes (the receive-side PMPI wrapper + the Figure 5
// matrix).
func (r *Rank) RecvAction(src int) sched.Action {
	return sched.WaitGate{G: r.gateFor(src)}
}

// CompleteRecv pops the delivered message accounting for one receive. It is
// invoked via a Call action immediately after RecvAction unblocks.
func (r *Rank) CompleteRecv(src int) sched.Action {
	return sched.Call{Fn: func(sim.Time) {
		q := r.pendingRecv[src]
		if len(q) == 0 {
			return
		}
		bytes := q[0]
		r.pendingRecv[src] = q[1:]
		r.fire(OpRecv, src, bytes)
		r.World.recvMatrix[r.ID][src] += bytes
	}}
}

// RecvActions is the conventional pair: wait for the message, then account
// it.
func (r *Rank) RecvActions(src int) []sched.Action {
	return []sched.Action{r.RecvAction(src), r.CompleteRecv(src)}
}

// SpawnProgressThread creates the MPI helper LWP real MPI implementations
// run: unbound (full machine cpuset minus nothing — job schedulers do not
// confine it), almost always asleep, waking rarely. It appears in ZeroSum
// reports as an "Other" thread with a huge affinity list and a handful of
// context switches, exactly like LWP 18385 in the paper's tables.
func (r *Rank) SpawnProgressThread(lifetime sim.Time) *sched.Task {
	aff := r.K.Machine.UsableSet(0)
	k := r.K
	deadline := k.Now() + lifetime
	sleeping := false
	behavior := sched.BehaviorFunc(func(t *sched.Task, now sim.Time) sched.Action {
		if now >= deadline {
			return nil
		}
		// Alternate long sleeps with slivers of progress work.
		sleeping = !sleeping
		if sleeping {
			return sched.Sleep{D: 500 * sim.Millisecond}
		}
		return sched.Compute{Work: 20 * sim.Microsecond, SysFrac: 0.9}
	})
	return k.NewTask(r.Proc, "cxi_progress", behavior,
		sched.WithKind(sched.KindOther),
		sched.WithAffinity(aff))
}

// Barrier returns a communicator-wide barrier action set. All ranks must
// use the same *sched.Barrier; create it once via NewBarrier.
func (w *World) NewBarrier(k *sched.Kernel) *sched.Barrier {
	return k.NewBarrier(w.size)
}

// NeighborExchange returns the action list for one halo-exchange step with
// the given neighbour offsets (e.g. ±1, ±16 for a 2D decomposition):
// sends to every neighbour, then receives from each. This is the
// communication skeleton of the gyrokinetic PIC code behind Figure 5.
func (r *Rank) NeighborExchange(offsets []int, bytes uint64) []sched.Action {
	var acts []sched.Action
	size := r.World.size
	for _, off := range offsets {
		dst := ((r.ID+off)%size + size) % size
		if dst == r.ID {
			continue
		}
		acts = append(acts, r.SendAction(dst, bytes))
	}
	for _, off := range offsets {
		src := ((r.ID+off)%size + size) % size
		if src == r.ID {
			continue
		}
		acts = append(acts, r.RecvActions(src)...)
	}
	return acts
}
