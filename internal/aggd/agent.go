package aggd

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/obs"
)

// AgentConfig tunes a node agent.
type AgentConfig struct {
	// URL is the aggregator base URL, e.g. "http://aggd:9100".
	URL string
	// URLs is the failover-ordered endpoint list for tree deployments
	// (typically Router.Order for this stream): shipments go to the first
	// entry, and when a shipment exhausts its retries there the agent
	// re-homes to the next endpoint whose /healthz answers, bumping its
	// epoch and restarting sequence numbering (see Rehome semantics on
	// Agent). Empty falls back to [URL].
	URLs []string
	// Job, Node, Rank identify this stream at the aggregator.
	Job  string
	Node string
	Rank int
	// Epoch identifies this incarnation of the (job, node, rank) stream.
	// Batch sequence numbers restart at 0 inside each epoch, so a process
	// that restarts its agent must bump the epoch or the aggregator will
	// discard the new stream's batches as replays of old sequence numbers.
	Epoch uint64

	// RingCap bounds the in-memory event buffer (default 8192). When the
	// ring is full the oldest event is dropped — backpressure never
	// propagates to the sampling loop.
	RingCap int
	// BatchSize is the shipment size that triggers an eager flush
	// (default 512 events). A stream that keeps producing is shipped in
	// exactly this size; what a burst leaves behind follows at once.
	BatchSize int
	// FlushInterval ships partial batches at least this often
	// (default 500 ms).
	FlushInterval time.Duration
	// MaxRetries is how many times a failed shipment is retried before its
	// events are counted as dropped (default 3).
	MaxRetries int
	// BackoffBase is the first retry delay, doubling per attempt
	// (default 50 ms), capped at MaxBackoff (default 2 s). Each wait is
	// jittered across [delay/2, delay) so a cluster of agents knocked
	// offline by one aggregator hiccup does not reconnect in lockstep.
	BackoffBase time.Duration
	MaxBackoff  time.Duration
	// DisableGzip ships batches uncompressed.
	DisableGzip bool
	// Client overrides the HTTP client (default: 5 s timeout).
	Client *http.Client
	// Obs, when non-nil, records one StageExport span per shipment.
	Obs *obs.Recorder
	// Now is the wall clock used to time shipments (default time.Now).
	Now func() time.Time
}

func (c AgentConfig) withDefaults() AgentConfig {
	if len(c.URLs) == 0 && c.URL != "" {
		c.URLs = []string{c.URL}
	}
	if c.URL == "" && len(c.URLs) > 0 {
		c.URL = c.URLs[0]
	}
	if c.RingCap <= 0 {
		c.RingCap = 8192
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	if c.BatchSize > c.RingCap {
		c.BatchSize = c.RingCap
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 500 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// AgentStats is a point-in-time counter snapshot.
type AgentStats struct {
	Enqueued    uint64 // events accepted from the stream
	RingDrops   uint64 // events evicted because the ring was full
	SendDrops   uint64 // events lost after exhausting retries
	SentBatches uint64
	SentEvents  uint64
	Retries     uint64
	Rehomes     uint64 // failovers to a sibling endpoint
	Epoch       uint64 // current stream epoch (bumped once per re-home)
}

// Agent is the per-process collector: it consumes a monitor's export.Stream
// from its own goroutine, buffers events in a bounded ring, and ships them
// to the aggregator in framed batches. The stream-facing hot path is a
// mutex-guarded ring insert — O(ns), no allocation, no I/O — so a slow or
// dead aggregator can never stall the 1 Hz sampling loop (the paper's
// <0.5 % overhead contract); it sheds load by dropping the oldest samples.
type Agent struct {
	cfg AgentConfig

	mu sync.Mutex
	// ring/head/count form the bounded drop-oldest buffer (head indexes
	// the oldest event); enqueued/ringDrops count accepted and evicted
	// events as plain fields because the enqueue path already holds mu,
	// so they beat per-event atomics on the hot path.
	ring      []eventSlot //zerosum:guardedby mu
	head      int         //zerosum:guardedby mu
	count     int         //zerosum:guardedby mu
	enqueued  uint64      //zerosum:guardedby mu
	ringDrops uint64      //zerosum:guardedby mu

	// Sender-goroutine scratch, reused across batches: takeBatch memmoves
	// ring slots into slotScratch under the lock, then builds the Events
	// view pointing into those slots outside it; ship appends the frame
	// into frameBuf and its gzip body into gzBuf.
	slotScratch []eventSlot
	shipEvents  []export.Event
	frameBuf    []byte
	gzBuf       []byte

	sendDrops   atomic.Uint64
	sentBatches atomic.Uint64
	sentEvents  atomic.Uint64
	rehomes     atomic.Uint64

	// Failover state. urls is the immutable endpoint list (cfg.URLs); cur
	// indexes the current home. Only the sender goroutine re-homes (and
	// bumps epoch / resets seq with it) — the snapshot path reads cur and
	// walks siblings on failure but never moves home — so cur and epoch
	// are atomics for visibility, not for contended writes.
	urls  []string
	cur   atomic.Int32
	epoch atomic.Uint64

	seq     uint64 // sender-goroutine only
	kick    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	shipper *shipper // stopped by whichever of Close and Kill wins closed
}

// NewAgent starts an agent and its sender goroutine.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	cfg = cfg.withDefaults()
	if len(cfg.URLs) == 0 {
		return nil, fmt.Errorf("aggd: AgentConfig.URL (or URLs) is required")
	}
	if cfg.Job == "" {
		return nil, fmt.Errorf("aggd: AgentConfig.Job is required")
	}
	a := &Agent{
		cfg:         cfg,
		urls:        cfg.URLs,
		ring:        make([]eventSlot, cfg.RingCap),
		slotScratch: make([]eventSlot, cfg.BatchSize),
		shipEvents:  make([]export.Event, 0, cfg.BatchSize),
		kick:        make(chan struct{}, 1),
		shipper: newShipper(cfg.Client, cfg.MaxRetries, cfg.BackoffBase, cfg.MaxBackoff, cfg.DisableGzip,
			uint64(cfg.Rank)<<32^cfg.Epoch, cfg.Job, cfg.Node),
	}
	a.epoch.Store(cfg.Epoch)
	a.wg.Add(1)
	go a.run()
	return a, nil
}

// currentURL returns the active endpoint's base URL.
func (a *Agent) currentURL() string { return a.urls[a.cur.Load()] }

// Home reports the endpoint the stream currently ships to. It moves when
// the sender re-homes after a failed shipment, so harnesses that kill an
// endpoint can wait on the condition "every stream left the dead address"
// instead of guessing a settle time. Safe from any goroutine.
func (a *Agent) Home() string { return a.currentURL() }

// Attach subscribes the agent to a stream. One agent may consume several
// streams (they share the ring and origin identity).
func (a *Agent) Attach(s *export.Stream) { s.Subscribe(a.Subscriber()) }

// Subscriber returns the stream callback; it only enqueues.
func (a *Agent) Subscriber() export.Subscriber { return a.enqueue }

func (a *Agent) enqueue(ev export.Event) {
	a.mu.Lock()
	if a.closed.Load() {
		a.ringDrops++
		a.mu.Unlock()
		return
	}
	if a.count == len(a.ring) {
		a.head++
		if a.head == len(a.ring) {
			a.head = 0
		}
		a.count--
		a.ringDrops++
	}
	i := a.head + a.count
	if i >= len(a.ring) {
		i -= len(a.ring)
	}
	a.ring[i].store(ev)
	a.count++
	a.enqueued++
	// Kick the sender only when the buffer crosses the batch threshold
	// (drain leaves less than a batch behind, so each crossing is seen
	// exactly once); anything below it rides the FlushInterval ticker.
	kick := a.count == a.cfg.BatchSize
	a.mu.Unlock()
	if kick {
		select {
		case a.kick <- struct{}{}:
		default:
		}
	}
}

// takeBatch pops up to BatchSize buffered events into the sender's reused
// scratch. The returned slice (and the payloads its events point into) is
// valid until the next takeBatch call — the sender finishes shipping each
// batch before taking the next, so nothing is ever shipped twice.
//
// A partial batch (fewer than BatchSize events buffered) is taken only when
// partial is set. seen is the enqueue count at the moment of the take, for
// drain to tell afterwards whether the stream kept producing.
func (a *Agent) takeBatch(partial bool) (events []export.Event, seen uint64) {
	a.mu.Lock()
	n, seen := a.count, a.enqueued
	if n == 0 || !partial && n < a.cfg.BatchSize {
		a.mu.Unlock()
		return nil, seen
	}
	if n > a.cfg.BatchSize {
		n = a.cfg.BatchSize
	}
	// Two contiguous copies keep the lock hold short: enqueue blocks on
	// this mutex, so an element-wise loop here would tax the hot path.
	slots := a.slotScratch[:n]
	first := len(a.ring) - a.head
	if first > n {
		first = n
	}
	copy(slots, a.ring[a.head:a.head+first])
	copy(slots[first:], a.ring[:n-first])
	a.head += n
	if a.head >= len(a.ring) {
		a.head -= len(a.ring)
	}
	a.count -= n
	a.mu.Unlock()

	// Build the Events view outside the lock; the payload pointers target
	// slotScratch, which never grows, so they stay valid for this batch.
	out := a.shipEvents[:0]
	for i := range slots {
		out = append(out, slots[i].event())
	}
	a.shipEvents = out
	return out, seen
}

func (a *Agent) run() {
	defer a.wg.Done()
	tick := time.NewTicker(a.cfg.FlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-a.shipper.done:
			if !a.shipper.killed.Load() {
				a.drain(true)
			}
			return
		case <-tick.C:
			a.drain(true)
		case <-a.kick:
			a.drain(false)
		}
	}
}

// drain ships what is buffered, a BatchSize at a time. The remainder below
// BatchSize goes out too when partial is set (the flush tick, shutdown), or
// when nothing was enqueued while the previous shipment was in flight: that
// is the tail of a burst, and nothing else would ship it before the next
// tick. A remainder that is still growing is left to reach BatchSize — and
// its own kick — by itself, so a live stream is cut at BatchSize however
// fast the aggregator answers, not at whatever piled up during one round
// trip.
func (a *Agent) drain(partial bool) {
	for {
		events, seen := a.takeBatch(partial)
		if len(events) == 0 {
			return
		}
		a.ship(events)
		a.mu.Lock()
		quiet := a.enqueued == seen
		a.mu.Unlock()
		partial = partial || quiet
	}
}

func (a *Agent) ship(events []export.Event) {
	shipStart := a.cfg.Now()
	b := Batch{
		Origin: Origin{Job: a.cfg.Job, Node: a.cfg.Node, Rank: a.cfg.Rank},
		Epoch:  a.epoch.Load(),
		Seq:    a.seq,
		Events: events,
	}
	frame, err := AppendBatchFrame(a.frameBuf[:0], &b)
	if err != nil { // unencodable events: drop, nothing to retry
		a.sendDrops.Add(uint64(len(events)))
		a.cfg.Obs.RecordError(obs.StageExport)
		return
	}
	a.frameBuf = frame
	a.seq++
	if err := a.shipper.post(a.currentURL(), frame, &a.gzBuf); err != nil {
		// The shipment is dropped, never re-sent elsewhere: the home may
		// have applied it and lost only the ack, so resending it under a
		// new epoch would double-merge. Conservation counts it lost, and
		// the agent re-homes so the next batches land somewhere alive.
		a.sendDrops.Add(uint64(len(events)))
		a.cfg.Obs.RecordError(obs.StageExport)
		a.rehome()
		return
	}
	a.sentBatches.Add(1)
	a.sentEvents.Add(uint64(len(events)))
	a.cfg.Obs.Record(obs.StageExport, shipStart, a.cfg.Now().Sub(shipStart))
}

// rehome moves the stream to the next endpoint whose /healthz answers,
// walking the failover list in ring order from the current home (the home
// itself is probed last — if it recovered, staying is fine, but its state
// may be gone, so the re-home semantics below still apply). Each full pass
// with no healthy endpoint waits out a jittered, doubling backoff;
// MaxRetries+1 passes bound the walk so shutdown is never blocked behind
// a dead fleet.
//
// A successful re-home bumps the stream epoch and restarts sequence
// numbering at 0: the new home has no sequence state for this stream, and
// an epoch bump is exactly how the dedup protocol says "numbering starts
// over — not a replay". Sender goroutine only.
func (a *Agent) rehome() {
	if len(a.urls) <= 1 {
		return
	}
	backoff := a.shipper.backoffBase
	for pass := 0; pass <= a.shipper.maxRetries; pass++ {
		if a.shipper.killed.Load() {
			return
		}
		cur := int(a.cur.Load())
		for step := 1; step <= len(a.urls); step++ {
			idx := (cur + step) % len(a.urls)
			if a.healthy(a.urls[idx]) {
				a.cur.Store(int32(idx))
				a.epoch.Add(1)
				a.seq = 0
				a.rehomes.Add(1)
				return
			}
		}
		if !a.shipper.wait(&backoff) {
			return
		}
	}
}

// healthy probes one endpoint's liveness.
func (a *Agent) healthy(url string) bool {
	resp, err := a.shipper.client.Get(url + "/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode/100 == 2
}

// PushSnapshot synchronously ships a rank's report snapshot and its
// received-bytes communication row (monitor.RecvBytes()). When the home
// endpoint stays unreachable through its retries, the other failover
// endpoints each get one direct attempt — a snapshot is an idempotent
// wholesale replacement, so unlike a batch it is safe to deliver anywhere
// (and possibly twice) — without moving the stream's home.
func (a *Agent) PushSnapshot(snap core.Snapshot, commRow map[int]uint64) error {
	frame, err := EncodeSnapshotFrame(&SnapshotMsg{
		Origin:   Origin{Job: a.cfg.Job, Node: a.cfg.Node, Rank: a.cfg.Rank},
		Snapshot: snap,
		CommRow:  commRow,
	})
	if err != nil {
		return err
	}
	cur := int(a.cur.Load())
	var gz []byte
	if err = a.shipper.post(a.urls[cur], frame, &gz); err == nil {
		return nil
	}
	for step := 1; step < len(a.urls); step++ {
		if a.shipper.killed.Load() {
			return err
		}
		if a.shipper.attempt(a.urls[(cur+step)%len(a.urls)], frame, "") == nil {
			return nil
		}
	}
	return err
}

// Stats snapshots the agent's counters.
func (a *Agent) Stats() AgentStats {
	a.mu.Lock()
	enqueued, ringDrops := a.enqueued, a.ringDrops
	a.mu.Unlock()
	return AgentStats{
		Enqueued:    enqueued,
		RingDrops:   ringDrops,
		SendDrops:   a.sendDrops.Load(),
		SentBatches: a.sentBatches.Load(),
		SentEvents:  a.sentEvents.Load(),
		Retries:     a.shipper.retries.Load(),
		Rehomes:     a.rehomes.Load(),
		Epoch:       a.epoch.Load(),
	}
}

// Close flushes buffered events and stops the sender. The flush is bounded:
// a shipment already mid-backoff gets one final immediate attempt, and
// whatever still cannot be delivered is counted as dropped rather than
// blocking shutdown behind the full retry schedule. Subscribers left
// attached to a stream keep counting their events as dropped. Close is
// idempotent.
func (a *Agent) Close() error {
	if a.closed.Swap(true) {
		return nil
	}
	a.shipper.stop(false)
	a.wg.Wait()
	return nil
}

// Kill stops the agent the way a crash would: no final drain, no retry of
// an in-flight shipment. Events still buffered in the ring — data a real
// crash would silently lose — are counted as send drops so the agent's
// conservation invariant (enqueued == sent + dropped) survives the crash;
// the chaos harness leans on that to audit fault scenarios exactly. Kill
// is idempotent and safe to race with Close (first caller wins).
func (a *Agent) Kill() {
	if a.closed.Swap(true) {
		return
	}
	a.shipper.stop(true)
	a.wg.Wait()
	a.mu.Lock()
	orphaned := a.count
	a.head, a.count = 0, 0
	a.mu.Unlock()
	a.sendDrops.Add(uint64(orphaned))
}
