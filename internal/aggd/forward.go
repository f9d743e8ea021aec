package aggd

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"zerosum/internal/obs"
)

// ForwardConfig tunes a leaf aggregator's upstream forwarder.
type ForwardConfig struct {
	// Upstream is the parent aggregator's base URL, e.g. "http://root:9100".
	Upstream string
	// LeafID is this leaf's stable identity in rollup frames; the parent
	// keys its (epoch, seq) rollup dedup on it. Typically host:port.
	LeafID string
	// Epoch identifies this incarnation of the leaf process. Rollup
	// sequence numbers restart at 0 inside each epoch, so a restarted leaf
	// must bump it or the parent will discard its rollups as replays.
	Epoch uint64

	// FlushInterval ships buffered rollups at least this often
	// (default 100 ms).
	FlushInterval time.Duration
	// EagerEvents triggers an immediate flush once this many events are
	// buffered (default 4096).
	EagerEvents int
	// MaxBuffered bounds the buffered event count (default 65536). When an
	// unreachable parent backs the buffer up past it, the oldest pending
	// batches are dropped (and counted) — backpressure never propagates
	// down to the agents.
	MaxBuffered int
	// MaxRetries is how many times a failed rollup shipment is retried
	// before its events are counted as dropped (default 3).
	MaxRetries int
	// BackoffBase is the first retry delay, doubling per attempt
	// (default 50 ms), capped at MaxBackoff (default 2 s), jittered like
	// the agent's so sibling leaves do not reconnect in lockstep.
	BackoffBase time.Duration
	MaxBackoff  time.Duration
	// DisableGzip ships rollups uncompressed.
	DisableGzip bool
	// Client overrides the HTTP client (default: 5 s timeout).
	Client *http.Client
	// Obs, when non-nil, records one StageExport span per rollup shipment.
	Obs *obs.Recorder
	// Now is the wall clock used to time shipments (default time.Now).
	Now func() time.Time
}

func (c ForwardConfig) withDefaults() ForwardConfig {
	if c.FlushInterval <= 0 {
		c.FlushInterval = 100 * time.Millisecond
	}
	if c.EagerEvents <= 0 {
		c.EagerEvents = 4096
	}
	if c.MaxBuffered <= 0 {
		c.MaxBuffered = 65536
	}
	if c.EagerEvents > c.MaxBuffered {
		c.EagerEvents = c.MaxBuffered
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// FwdStats is a point-in-time snapshot of a forwarder's counters. The
// leaf's conservation invariant — once the forwarder is stopped — is
//
//	EnqueuedEvents == AckedEvents + DroppedEvents
//
// (while running, events in the pending buffer are in neither bucket),
// which the tree soak audits against the leaf server's admitted counts.
type FwdStats struct {
	EnqueuedEvents uint64 // events in the admitted batches handed to the forwarder
	AckedEvents    uint64 // events in rollups the parent acknowledged
	DroppedEvents  uint64 // events in batches shed on overflow, in abandoned rollups, or pending at Kill
	PendingEvents  uint64 // events in the batches currently buffered
	SentRollups    uint64 // rollup frames acknowledged by the parent
	DroppedRollups uint64 // rollup frames abandoned after exhausting retries
	SentSnapshots  uint64 // snapshot documents shipped inside acked rollups
	Retries        uint64
	Epoch          uint64
}

// fwdBatch is the bookkeeping for one admitted batch in a fwdQueue: how many
// events it carries and how many bytes of the queue (length prefix
// included) are its.
type fwdBatch struct {
	events, size int
}

// fwdQueue holds admitted batches in admission order, already in the form
// a rollup frame embeds them: data is their length-prefixed payloads back to
// back, batches the per-record bookkeeping that lets overflow shed whole
// batches oldest-first.
type fwdQueue struct {
	data    []byte
	batches []fwdBatch
	events  int // sum of batches[i].events
}

// push appends one batch payload behind its length prefix. A queue that has
// grown to its working size pushes without allocating.
//
//zerosum:hotpath
func (q *fwdQueue) push(payload []byte, events int) {
	q.data = appendLenPrefixed(q.data, payload)
	q.batches = append(q.batches, fwdBatch{events: events, size: 4 + len(payload)})
	q.events += events
}

// shed drops the oldest batch and returns its event count.
func (q *fwdQueue) shed() int {
	old := q.batches[0]
	q.batches = q.batches[1:]
	q.data = q.data[old.size:]
	q.events -= old.events
	return old.events
}

// Forwarder turns a server into a leaf: the payload bytes of admitted
// batches and snapshot documents buffer here and flush upstream as rollup
// frames. It relays bytes, never events: a batch payload that decoded is
// canonical (batchcodec.go), so the bytes the leaf admitted are the bytes
// encoding the decoded batch would produce, and they keep the original
// (origin, epoch, seq) the parent's per-origin dedup needs to merge a batch
// two leaf incarnations both admitted exactly once. The enqueue path runs
// under the server's rank-shard lock (that is what serializes a single
// origin's batches into admission order), so it is a bounded append; all
// I/O happens on the flusher goroutine.
type Forwarder struct {
	cfg ForwardConfig

	mu      sync.Mutex
	pending fwdQueue          //zerosum:guardedby mu
	snaps   map[Origin][]byte //zerosum:guardedby mu latest unshipped snapshot body per origin

	// sendMu serializes flushes so rollup sequence numbers leave in order;
	// seq and the scratch below belong to whoever holds it. spare is the
	// queue the previous flush drained, swapped in for pending by the next
	// so enqueues keep appending into grown buffers.
	sendMu   sync.Mutex
	seq      uint64   //zerosum:guardedby sendMu
	frameBuf []byte   //zerosum:guardedby sendMu
	gzBuf    []byte   //zerosum:guardedby sendMu
	spare    fwdQueue //zerosum:guardedby sendMu

	enqueuedEvents atomic.Uint64
	ackedEvents    atomic.Uint64
	droppedEvents  atomic.Uint64
	sentRollups    atomic.Uint64
	droppedRollups atomic.Uint64
	sentSnapshots  atomic.Uint64

	kick    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	shipper *shipper // stopped by whichever of Close and Kill wins closed
}

// NewForwarder starts a forwarder and its flusher goroutine.
func NewForwarder(cfg ForwardConfig) (*Forwarder, error) {
	cfg = cfg.withDefaults()
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("aggd: ForwardConfig.Upstream is required")
	}
	if cfg.LeafID == "" {
		return nil, fmt.Errorf("aggd: ForwardConfig.LeafID is required")
	}
	f := &Forwarder{
		cfg:   cfg,
		snaps: make(map[Origin][]byte),
		kick:  make(chan struct{}, 1),
		shipper: newShipper(cfg.Client, cfg.MaxRetries, cfg.BackoffBase, cfg.MaxBackoff, cfg.DisableGzip,
			cfg.Epoch, cfg.Upstream, cfg.LeafID),
	}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// EnqueueBatch buffers an admitted batch — its FrameBatch payload and the
// number of events that payload decoded to — for the next rollup. The bytes
// are copied before returning, so the caller's read buffer is free to be
// reused.
//
//zerosum:locked rankShard.mu the server enqueues under the origin's shard lock, which is what orders one origin's batches
func (f *Forwarder) EnqueueBatch(payload []byte, events int) {
	f.enqueuedEvents.Add(uint64(events))
	f.mu.Lock()
	if f.closed.Load() {
		f.mu.Unlock()
		f.droppedEvents.Add(uint64(events))
		return
	}
	f.pending.push(payload, events)
	// Shed oldest-first when the parent has been unreachable long enough
	// to back the buffer up; the drop is counted, never silent.
	var shed int
	for f.pending.events > f.cfg.MaxBuffered && len(f.pending.batches) > 1 {
		shed += f.pending.shed()
	}
	eager := f.pending.events >= f.cfg.EagerEvents
	f.mu.Unlock()
	if shed > 0 {
		f.droppedEvents.Add(uint64(shed))
	}
	if eager {
		select {
		case f.kick <- struct{}{}:
		default:
		}
	}
}

// EnqueueSnapshot buffers a rank's snapshot document — its FrameSnapshot
// payload — for the next rollup. Snapshots are idempotent wholesale
// replacements, so only the latest unshipped document per origin is kept
// and a document that fails to ship stays buffered for the next flush.
func (f *Forwarder) EnqueueSnapshot(origin Origin, payload []byte) {
	body := append([]byte(nil), payload...)
	f.mu.Lock()
	if !f.closed.Load() {
		f.snaps[origin] = body
	}
	f.mu.Unlock()
}

func (f *Forwarder) run() {
	defer f.wg.Done()
	tick := time.NewTicker(f.cfg.FlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.shipper.done:
			if !f.shipper.killed.Load() {
				f.flushOnce()
			}
			return
		case <-tick.C:
		case <-f.kick:
		}
		f.flushOnce()
	}
}

// Flush synchronously ships everything currently buffered (one rollup) and
// reports whether the shipment was acknowledged. The tree soak uses it to
// settle the pipeline before auditing; a daemon never needs it.
func (f *Forwarder) Flush() bool { return f.flushOnce() }

// flushOnce drains the buffer into one rollup frame — header, the pending
// batch records, the latest snapshot bodies — and posts it. Returns false
// only when a non-empty rollup was abandoned after its retries.
func (f *Forwarder) flushOnce() bool {
	f.sendMu.Lock()
	defer f.sendMu.Unlock()

	f.mu.Lock()
	out := f.pending
	f.pending = f.spare
	var dirty map[Origin][]byte
	if len(f.snaps) > 0 {
		dirty = f.snaps
		f.snaps = make(map[Origin][]byte)
	}
	f.mu.Unlock()
	// out's buffers stay this flush's to read: only the next flush, behind
	// sendMu, hands spare to the enqueuers.
	f.spare = fwdQueue{data: out.data[:0], batches: out.batches[:0]}

	if len(out.batches) == 0 && len(dirty) == 0 {
		return true
	}

	seq := f.seq
	f.seq++
	snaps := make([][]byte, 0, len(dirty))
	for _, body := range dirty {
		snaps = append(snaps, body)
	}

	shipStart := f.cfg.Now()
	frame, err := appendRollupFrame(f.frameBuf[:0], f.cfg.LeafID, f.cfg.Epoch, seq,
		len(out.batches), out.data, snaps)
	if err == nil {
		f.frameBuf = frame
		err = f.shipper.post(f.cfg.Upstream, frame, &f.gzBuf)
	}
	if err != nil {
		f.droppedEvents.Add(uint64(out.events))
		f.droppedRollups.Add(1)
		f.cfg.Obs.RecordError(obs.StageExport)
		// The batches are gone (retrying them under the same rollup seq
		// after the parent may have applied it risks double-merging), but
		// snapshots are idempotent: put any not re-dirtied since back.
		f.mu.Lock()
		if !f.closed.Load() {
			for origin, body := range dirty {
				if _, ok := f.snaps[origin]; !ok {
					f.snaps[origin] = body
				}
			}
		}
		f.mu.Unlock()
		return false
	}
	f.ackedEvents.Add(uint64(out.events))
	f.sentRollups.Add(1)
	f.sentSnapshots.Add(uint64(len(dirty)))
	f.cfg.Obs.Record(obs.StageExport, shipStart, f.cfg.Now().Sub(shipStart))
	return true
}

// Stats snapshots the forwarder's counters.
func (f *Forwarder) Stats() FwdStats {
	f.mu.Lock()
	pending := f.pending.events
	f.mu.Unlock()
	return FwdStats{
		EnqueuedEvents: f.enqueuedEvents.Load(),
		AckedEvents:    f.ackedEvents.Load(),
		DroppedEvents:  f.droppedEvents.Load(),
		PendingEvents:  uint64(pending),
		SentRollups:    f.sentRollups.Load(),
		DroppedRollups: f.droppedRollups.Load(),
		SentSnapshots:  f.sentSnapshots.Load(),
		Retries:        f.shipper.retries.Load(),
		Epoch:          f.cfg.Epoch,
	}
}

// Close flushes the buffer (one bounded final shipment, like the agent's)
// and stops the flusher. Idempotent.
func (f *Forwarder) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	f.shipper.stop(false)
	f.wg.Wait()
	f.dropPending()
	return nil
}

// Kill stops the forwarder the way a leaf crash would: no final flush, no
// retry of an in-flight rollup. Buffered events — data a real crash would
// silently lose — are counted as drops so the leaf's conservation
// invariant survives the crash. Idempotent, safe to race with Close.
func (f *Forwarder) Kill() {
	if f.closed.Swap(true) {
		return
	}
	f.shipper.stop(true)
	f.wg.Wait()
	f.dropPending()
}

// dropPending folds whatever is still buffered after shutdown into the
// dropped counter (snapshot documents are not events and simply vanish).
func (f *Forwarder) dropPending() {
	f.mu.Lock()
	orphaned := f.pending.events
	f.pending = fwdQueue{}
	f.snaps = map[Origin][]byte{}
	f.mu.Unlock()
	if orphaned > 0 {
		f.droppedEvents.Add(uint64(orphaned))
	}
}
