package aggd

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/obs"
	"zerosum/internal/report"
	"zerosum/internal/tsdb"
)

// nShards fans the job map out so concurrent streams from many nodes do not
// serialize on one lock; per-job state has its own finer lock below.
const nShards = 16

// ServerConfig tunes the aggregator.
type ServerConfig struct {
	// Thresholds parameterize the configuration evaluation folded into the
	// job summary (must match the ground-truth aggregation to compare).
	Thresholds core.EvalThresholds
	// Now is the wall clock (injectable for tests; default time.Now).
	Now func() time.Time
	// MaxBody bounds one ingest request body (default 64 MiB).
	MaxBody int64
	// TSDB tunes the embedded time-series store (block width, downsample
	// step, retention). The zero value takes the store's defaults.
	TSDB tsdb.Options
	// Forward, when non-nil, runs the server as a leaf of an aggregation
	// tree: every admitted batch and snapshot document is also queued to a
	// Forwarder that ships pre-merged rollup frames to Forward.Upstream.
	// Upstream and LeafID are required — NewServer panics on a Forward
	// config it cannot start, since a leaf that silently stops forwarding
	// is worse than one that fails to boot.
	Forward *ForwardConfig
}

// Server accepts agent streams and serves the aggregated views.
type Server struct {
	cfg    ServerConfig
	shards [nShards]shard
	obs    *obs.Recorder // ingest spans + stage stats, served at /debug/obs
	store  *tsdb.Store   // every admitted sample, compressed and queryable
	fwd    *Forwarder    // nil unless this server is a leaf (cfg.Forward)

	// Per-leaf rollup sequence accounting, keyed by the rollup's leaf ID.
	// One coarse lock: rollups arrive at flush cadence (per leaf, not per
	// agent), so this is far off the ingest hot path.
	leafMu   sync.Mutex
	leafSeqs map[string]*leafSeq //zerosum:guardedby leafMu

	ingestBatches    atomic.Uint64
	ingestEvents     atomic.Uint64
	ingestSnapshots  atomic.Uint64
	ingestErrors     atomic.Uint64
	lostBatches      atomic.Uint64 // sequence gaps observed across all streams
	recoveredBatches atomic.Uint64 // gap batches that later arrived via retry
	dupBatches       atomic.Uint64 // replayed batches skipped by dedup
	corruptFrames    atomic.Uint64 // frames rejected for checksum/framing damage
	writeErrors      atomic.Uint64 // response bodies that failed mid-write

	// Admitted events by kind. Dedup runs before these, so each counts a
	// kind's events exactly once across retries and replays — the soak's
	// sample-conservation audit divides TSDB sample counts by them.
	eventsLWP atomic.Uint64
	eventsHWT atomic.Uint64
	eventsGPU atomic.Uint64
	eventsMem atomic.Uint64
	eventsIO  atomic.Uint64

	// Rollup (tree ingest) accounting. rollupSkippedEvents counts events
	// inside embedded batches the per-origin dedup rejected — the one
	// legitimate way a parent "loses" data a leaf acked (two leaf
	// incarnations forwarded the same agent batch, or a stale-epoch batch
	// straggled in after its agent re-homed). The tree soak's leak audit
	// closes its books with it.
	rollupFrames        atomic.Uint64
	dupRollups          atomic.Uint64 // replayed rollups skipped by (leaf, epoch, seq) dedup
	lostRollups         atomic.Uint64 // rollup sequence gaps observed across all leaves
	recoveredRollups    atomic.Uint64 // gap rollups that later arrived via retry
	rollupSkippedEvents atomic.Uint64
}

// ServerStats is a point-in-time snapshot of the aggregator's counters; the
// chaos soak audits fault accounting against it without scraping /metrics.
type ServerStats struct {
	IngestBatches    uint64
	IngestEvents     uint64
	IngestSnapshots  uint64
	IngestErrors     uint64
	LostBatches      uint64
	RecoveredBatches uint64
	DupBatches       uint64
	CorruptFrames    uint64
	WriteErrors      uint64
	EventsLWP        uint64
	EventsHWT        uint64
	EventsGPU        uint64
	EventsMem        uint64
	EventsIO         uint64

	RollupFrames        uint64
	DupRollups          uint64
	LostRollups         uint64
	RecoveredRollups    uint64
	RollupSkippedEvents uint64
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		IngestBatches:    s.ingestBatches.Load(),
		IngestEvents:     s.ingestEvents.Load(),
		IngestSnapshots:  s.ingestSnapshots.Load(),
		IngestErrors:     s.ingestErrors.Load(),
		LostBatches:      s.lostBatches.Load(),
		RecoveredBatches: s.recoveredBatches.Load(),
		DupBatches:       s.dupBatches.Load(),
		CorruptFrames:    s.corruptFrames.Load(),
		WriteErrors:      s.writeErrors.Load(),
		EventsLWP:        s.eventsLWP.Load(),
		EventsHWT:        s.eventsHWT.Load(),
		EventsGPU:        s.eventsGPU.Load(),
		EventsMem:        s.eventsMem.Load(),
		EventsIO:         s.eventsIO.Load(),

		RollupFrames:        s.rollupFrames.Load(),
		DupRollups:          s.dupRollups.Load(),
		LostRollups:         s.lostRollups.Load(),
		RecoveredRollups:    s.recoveredRollups.Load(),
		RollupSkippedEvents: s.rollupSkippedEvents.Load(),
	}
}

type shard struct {
	mu   sync.RWMutex
	jobs map[string]*jobStore //zerosum:guardedby mu
}

// nRankShards fans one job's per-rank merge state out over independent
// locks. Ingest touches exactly one (node, rank) stream per batch, so two
// ranks that hash apart merge concurrently; before sharding, every stream of
// a job serialized on a single jobStore mutex.
const nRankShards = 8

// jobStore is one job's aggregation state, sharded by rank key.
type jobStore struct {
	shards [nRankShards]rankShard
}

type rankShard struct {
	mu    sync.Mutex
	ranks map[rankKey]*rankState //zerosum:guardedby mu
}

type rankKey struct {
	node string
	rank int
}

// shardFor hashes the rank key inline (FNV-1a over node bytes then rank
// bytes) — the ingest hot path cannot afford a hash.Hash allocation.
//
//zerosum:hotpath
func (js *jobStore) shardFor(key rankKey) *rankShard {
	h := uint32(2166136261)
	for i := 0; i < len(key.node); i++ {
		h = (h ^ uint32(key.node[i])) * 16777619
	}
	r := uint32(key.rank)
	for i := 0; i < 4; i++ {
		h = (h ^ (r & 0xff)) * 16777619
		r >>= 8
	}
	return &js.shards[h%nRankShards]
}

// eachRank visits every rank state, holding each shard's lock across its
// slice of the iteration.
func (js *jobStore) eachRank(fn func(key rankKey, rs *rankState)) {
	for i := range js.shards {
		sh := &js.shards[i]
		sh.mu.Lock()
		for key, rs := range sh.ranks {
			fn(key, rs)
		}
		sh.mu.Unlock()
	}
}

// rankState is the live view of one (node, rank) stream: the latest sample
// per resource for /metrics, plus the end-of-run snapshot for the summary.
// Every field is guarded by the owning rankShard's mutex — rankState cannot
// name it as a sibling, so the annotations use the lock-class form.
type rankState struct {
	lastRecv    time.Time //zerosum:guardedby rankShard.mu server receipt time of the latest frame
	lastSampleT float64   //zerosum:guardedby rankShard.mu largest sample timestamp seen
	events      uint64    //zerosum:guardedby rankShard.mu

	seq seqWindow //zerosum:guardedby rankShard.mu the agent's (epoch, batch seq) dedup

	hwt     map[int]export.HWTSample //zerosum:guardedby rankShard.mu
	gpuBusy map[int]float64          //zerosum:guardedby rankShard.mu
	nvctx   map[int]uint64           //zerosum:guardedby rankShard.mu per TID, cumulative
	vctx    map[int]uint64           //zerosum:guardedby rankShard.mu
	stalled map[int]bool             //zerosum:guardedby rankShard.mu TIDs currently flagged stalled (§3.3)
	// stallEvents counts false→true transitions of the stalled flag: the
	// gauge above drops back to zero once a stall clears (or the thread
	// dies), so this cumulative counter is what proves a stall happened.
	stallEvents uint64 //zerosum:guardedby rankShard.mu
	memFree     uint64 //zerosum:guardedby rankShard.mu
	memRSS      uint64 //zerosum:guardedby rankShard.mu

	// Cached tsdb series handles, resolved once per stream metric and valid
	// for the store's lifetime (series are never deleted): hashing the
	// struct-keyed series map per sample dominated the ingest profile, so
	// the batch path pays the lookup only on each stream's first event.
	lwpSeries map[int]*lwpSeries            //zerosum:guardedby rankShard.mu per TID
	hwtSeries map[int]*hwtSeries            //zerosum:guardedby rankShard.mu per CPU
	gpuSeries map[gpuSeriesKey]*tsdb.Series //zerosum:guardedby rankShard.mu
	memFreeS  *tsdb.Series                  //zerosum:guardedby rankShard.mu
	memRSSS   *tsdb.Series                  //zerosum:guardedby rankShard.mu
	ioReadS   *tsdb.Series                  //zerosum:guardedby rankShard.mu
	ioWriteS  *tsdb.Series                  //zerosum:guardedby rankShard.mu
}

// NewServer builds an aggregator — the root of a tree (or a flat
// single-server deployment) when cfg.Forward is nil, a leaf forwarding
// rollups upstream when it is set.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 64 << 20
	}
	s := &Server{
		cfg:      cfg,
		obs:      obs.NewRecorder(0),
		store:    tsdb.NewStore(cfg.TSDB),
		leafSeqs: make(map[string]*leafSeq), //zerosum:nolock constructor, not yet shared
	}
	for i := range s.shards {
		s.shards[i].jobs = make(map[string]*jobStore) //zerosum:nolock constructor, not yet shared
	}
	if cfg.Forward != nil {
		fwd, err := NewForwarder(*cfg.Forward)
		if err != nil {
			panic(fmt.Sprintf("aggd: leaf server misconfigured: %v", err))
		}
		s.fwd = fwd
	}
	return s
}

// Forwarder exposes the leaf's upstream forwarder (nil on a root/flat
// server) for stats, explicit flushes, and crash simulation in tests.
func (s *Server) Forwarder() *Forwarder { return s.fwd }

// Close stops the leaf's forwarder after one final flush; on a root/flat
// server it is a no-op. Idempotent.
func (s *Server) Close() error {
	if s.fwd != nil {
		return s.fwd.Close()
	}
	return nil
}

// Obs exposes the server's self-observability recorder (ingest spans).
func (s *Server) Obs() *obs.Recorder { return s.obs }

// TSDB exposes the embedded time-series store: every admitted sample lands
// there at ingest, and the summary/heatmap endpoints read their snapshots
// back out of it. A daemon calls its EnforceRetention on a housekeeping
// tick.
func (s *Server) TSDB() *tsdb.Store { return s.store }

// Handler returns the HTTP API:
//
//	POST /api/ingest              framed batches/snapshots/rollups (gzip accepted)
//	GET  /healthz                 liveness probe (agents health-check failover targets)
//	GET  /metrics                 Prometheus text exposition
//	GET  /api/jobs                known jobs
//	GET  /api/job/{id}/summary    aggregated report.JobSummary (JSON)
//	GET  /api/job/{id}/heatmap    rank x rank received-bytes matrix (JSON);
//	                              with ?metric= a series x time matrix over
//	                              an arbitrary window from the TSDB
//	GET  /api/job/{id}/query      TSDB range query (raw or stepped+aggregated)
//	GET  /api/job/{id}/topk       top-k series by one aggregate over a window
//	GET  /api/job/{id}/tsdb       the job's compressed block set (ZSTB blob)
//	GET  /debug/obs               self-observability span dump (JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/ingest", s.handleIngest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/jobs", s.handleJobs)
	mux.HandleFunc("GET /api/job/{id}/summary", s.handleSummary)
	mux.HandleFunc("GET /api/job/{id}/heatmap", s.handleHeatmap)
	mux.HandleFunc("GET /api/job/{id}/query", s.handleQuery)
	mux.HandleFunc("GET /api/job/{id}/topk", s.handleTopK)
	mux.HandleFunc("GET /api/job/{id}/tsdb", s.handleTSDBDump)
	mux.Handle("GET /debug/obs", obs.Handler("zsaggd", s.obs, nil))
	return mux
}

func (s *Server) job(name string) *jobStore {
	h := fnv.New32a()
	_, _ = io.WriteString(h, name) // hash.Hash Write is documented never to fail
	sh := &s.shards[h.Sum32()%nShards]
	sh.mu.RLock()
	js := sh.jobs[name]
	sh.mu.RUnlock()
	if js != nil {
		return js
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if js = sh.jobs[name]; js == nil {
		js = &jobStore{}
		sh.jobs[name] = js
	}
	return js
}

// lookupJob returns nil when the job is unknown.
func (s *Server) lookupJob(name string) *jobStore {
	h := fnv.New32a()
	_, _ = io.WriteString(h, name) // hash.Hash Write is documented never to fail
	sh := &s.shards[h.Sum32()%nShards]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.jobs[name]
}

// rank returns the shard's state for key, creating it on first contact.
//
//zerosum:locked mu callers ingest under the shard lock
func (sh *rankShard) rank(key rankKey) *rankState {
	rs := sh.ranks[key]
	if rs == nil {
		rs = &rankState{
			hwt:       make(map[int]export.HWTSample),
			gpuBusy:   make(map[int]float64),
			nvctx:     make(map[int]uint64),
			vctx:      make(map[int]uint64),
			stalled:   make(map[int]bool),
			lwpSeries: make(map[int]*lwpSeries),
			hwtSeries: make(map[int]*hwtSeries),
			gpuSeries: make(map[gpuSeriesKey]*tsdb.Series),
		}
		if sh.ranks == nil {
			sh.ranks = make(map[rankKey]*rankState)
		}
		sh.ranks[key] = rs
	}
	return rs
}

// lwpSeries bundles one LWP stream's cached tsdb handles (one per metric
// the aggregator derives from an LWP sample).
type lwpSeries struct {
	user, sys, vctx, nvctx, stalled *tsdb.Series
}

// hwtSeries bundles one hardware thread's cached tsdb handles.
type hwtSeries struct {
	idle, sys, user *tsdb.Series
}

type gpuSeriesKey struct {
	gpu    int
	metric string
}

// resolveLWPSeries pays the series-map lookups for a newly seen TID; every
// later sample of the stream reuses the handles.
//
//zerosum:coldpath
func resolveLWPSeries(ba *tsdb.BatchAppender, node string, rank, tid int) *lwpSeries {
	key := tsdb.SeriesKey{Node: node, Rank: rank, TID: tid}
	ls := &lwpSeries{}
	key.Metric = metricLWPUserPct
	ls.user = ba.Resolve(key)
	key.Metric = metricLWPSysPct
	ls.sys = ba.Resolve(key)
	key.Metric = metricLWPVCtx
	ls.vctx = ba.Resolve(key)
	key.Metric = metricLWPNVCtx
	ls.nvctx = ba.Resolve(key)
	key.Metric = metricLWPStalled
	ls.stalled = ba.Resolve(key)
	return ls
}

//zerosum:coldpath
func resolveHWTSeries(ba *tsdb.BatchAppender, node string, rank, cpu int) *hwtSeries {
	key := tsdb.SeriesKey{Node: node, Rank: rank, TID: cpu}
	hs := &hwtSeries{}
	key.Metric = metricHWTIdlePct
	hs.idle = ba.Resolve(key)
	key.Metric = metricHWTSysPct
	hs.sys = ba.Resolve(key)
	key.Metric = metricHWTUserPct
	hs.user = ba.Resolve(key)
	return hs
}

// Pooled ingest scratch. Every request needs a gzip inflater (its internal
// window alone is tens of kilobytes), a frame scanner (64 KiB read buffer
// plus payload buffer), and a batch decode arena; all three recycle across
// requests so a steady agent fleet ingests with near-zero per-request
// allocation. The arena is safe to reuse per frame because applyBatch copies
// everything it keeps out of the decoded events.
var (
	gzrPool     sync.Pool // *gzip.Reader; no New — first use constructs from the body
	scannerPool = sync.Pool{New: func() any { return NewFrameScanner(nil) }}
	batchPool   = sync.Pool{New: func() any { return new(BatchBuf) }}
)

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ingestStart := s.cfg.Now()
	defer func() {
		s.obs.Record(obs.StageIngest, ingestStart, s.cfg.Now().Sub(ingestStart))
	}()
	var body io.Reader = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	if r.Header.Get("Content-Encoding") == "gzip" {
		var zr *gzip.Reader
		var err error
		if v := gzrPool.Get(); v != nil {
			zr = v.(*gzip.Reader)
			err = zr.Reset(body)
		} else {
			zr, err = gzip.NewReader(body)
		}
		if err != nil {
			if zr != nil {
				gzrPool.Put(zr)
			}
			s.ingestErrors.Add(1)
			http.Error(w, "bad gzip body: "+err.Error(), http.StatusBadRequest)
			return
		}
		defer func() {
			_ = zr.Close()
			gzrPool.Put(zr)
		}()
		body = zr
	}
	// A body may interleave healthy and damaged frames (bit flips,
	// truncation, garbage from a half-written buffer). The scanner applies
	// every frame that survives its checksum and resynchronizes past the
	// rest; any damage still fails the request so the agent retries the
	// whole body, and sequence dedup makes that retry idempotent.
	sc := scannerPool.Get().(*FrameScanner)
	sc.Reset(body)
	defer func() {
		sc.Reset(nil) // drop the request body reference before pooling
		scannerPool.Put(sc)
	}()
	bb := batchPool.Get().(*BatchBuf)
	defer batchPool.Put(bb)
	frames, corrupt := 0, 0
	var firstErr error
	for {
		kind, payload, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			corrupt++
			s.corruptFrames.Add(1)
			if firstErr == nil {
				firstErr = err
			}
			var ce *CorruptFrameError
			if errors.As(err, &ce) {
				continue // scanner resynchronized; keep consuming
			}
			break // truncated stream or read failure: nothing left to scan
		}
		switch kind {
		case FrameBatch:
			b, err := DecodeBatchPayloadInto(payload, bb)
			if err != nil {
				corrupt++
				s.corruptFrames.Add(1)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			s.applyBatch(b)
			frames++
		case FrameSnapshot:
			msg, err := DecodeSnapshotPayload(payload)
			if err != nil {
				corrupt++
				s.corruptFrames.Add(1)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			s.applySnapshot(msg)
			frames++
		case FrameRollup:
			if err := s.applyRollup(payload, bb); err != nil {
				corrupt++
				s.corruptFrames.Add(1)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			frames++
		}
	}
	if corrupt > 0 {
		s.ingestErrors.Add(1)
		s.obs.RecordError(obs.StageIngest)
		http.Error(w, fmt.Sprintf("aggd: %d corrupt frame(s) in body (%d applied): %v",
			corrupt, frames, firstErr), http.StatusBadRequest)
		return
	}
	if frames == 0 {
		s.ingestErrors.Add(1)
		s.obs.RecordError(obs.StageIngest)
		http.Error(w, "aggd: empty ingest body", http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// applyBatch merges one batch, reporting whether it was admitted as new
// data (false: a replay or stale-epoch straggler the dedup skipped). On a
// leaf, admitted batches are also queued for the upstream rollup — under
// the same shard lock, which is what keeps one origin's batches in
// admission order on the wire up the tree.
func (s *Server) applyBatch(b *Batch) bool {
	now := s.cfg.Now()
	js := s.job(b.Job)
	sh := js.shardFor(rankKey{node: b.Node, rank: b.Rank})
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rs := sh.rank(rankKey{node: b.Node, rank: b.Rank})
	rs.lastRecv = now // even a replay proves the stream is alive
	verdict, gap := rs.seq.admit(b.Epoch, b.Seq)
	if gap > 0 {
		s.lostBatches.Add(gap)
	}
	switch verdict {
	case seqDuplicate:
		s.dupBatches.Add(1)
		return false
	case seqRecovered:
		s.recoveredBatches.Add(1)
	}
	if s.fwd != nil {
		s.fwd.EnqueueBatch(b)
	}
	rs.events += uint64(len(b.Events))
	var nLWP, nHWT, nGPU, nMem, nIO uint64
	ba := s.store.BeginBatch(b.Job, b.Node, b.Rank)
	for i := range b.Events {
		ev := &b.Events[i]
		if ev.TimeSec > rs.lastSampleT {
			rs.lastSampleT = ev.TimeSec
		}
		t := tsdb.TimeToNanos(ev.TimeSec)
		switch ev.Kind {
		case export.EventLWP:
			rs.nvctx[ev.LWP.TID] = ev.LWP.NVCtx
			rs.vctx[ev.LWP.TID] = ev.LWP.VCtx
			if ev.LWP.Stalled {
				if !rs.stalled[ev.LWP.TID] {
					rs.stallEvents++
				}
				rs.stalled[ev.LWP.TID] = true
			} else {
				delete(rs.stalled, ev.LWP.TID)
			}
			nLWP++
			ls := rs.lwpSeries[ev.LWP.TID]
			if ls == nil {
				ls = resolveLWPSeries(&ba, b.Node, b.Rank, ev.LWP.TID)
				rs.lwpSeries[ev.LWP.TID] = ls
			}
			ba.Append(ls.user, t, ev.LWP.UserPct)
			ba.Append(ls.sys, t, ev.LWP.SysPct)
			ba.Append(ls.vctx, t, float64(ev.LWP.VCtx))
			ba.Append(ls.nvctx, t, float64(ev.LWP.NVCtx))
			ba.Append(ls.stalled, t, boolSample(ev.LWP.Stalled))
		case export.EventHWT:
			rs.hwt[ev.HWT.CPU] = *ev.HWT
			nHWT++
			hs := rs.hwtSeries[ev.HWT.CPU]
			if hs == nil {
				hs = resolveHWTSeries(&ba, b.Node, b.Rank, ev.HWT.CPU)
				rs.hwtSeries[ev.HWT.CPU] = hs
			}
			ba.Append(hs.idle, t, ev.HWT.IdlePct)
			ba.Append(hs.sys, t, ev.HWT.SysPct)
			ba.Append(hs.user, t, ev.HWT.UserPct)
		case export.EventGPU:
			if ev.GPU.Metric == "Device Busy %" {
				rs.gpuBusy[ev.GPU.GPU] = ev.GPU.Value
			}
			nGPU++
			gk := gpuSeriesKey{gpu: ev.GPU.GPU, metric: ev.GPU.Metric}
			gs := rs.gpuSeries[gk]
			if gs == nil {
				gs = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank,
					TID: ev.GPU.GPU, Metric: gpuMetricName(ev.GPU.Metric)})
				rs.gpuSeries[gk] = gs
			}
			ba.Append(gs, t, ev.GPU.Value)
		case export.EventMem:
			rs.memFree = ev.Mem.FreeKB
			rs.memRSS = ev.Mem.ProcRSSKB
			nMem++
			if rs.memFreeS == nil {
				rs.memFreeS = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, Metric: metricMemFreeKB})
				rs.memRSSS = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, Metric: metricMemRSSKB})
			}
			ba.Append(rs.memFreeS, t, float64(ev.Mem.FreeKB))
			ba.Append(rs.memRSSS, t, float64(ev.Mem.ProcRSSKB))
		case export.EventIO:
			nIO++
			if rs.ioReadS == nil {
				rs.ioReadS = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, Metric: metricIOReadBytes})
				rs.ioWriteS = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, Metric: metricIOWriteBytes})
			}
			ba.Append(rs.ioReadS, t, float64(ev.IO.ReadBytes))
			ba.Append(rs.ioWriteS, t, float64(ev.IO.WriteBytes))
		}
	}
	ba.End()
	s.ingestBatches.Add(1)
	s.ingestEvents.Add(uint64(len(b.Events)))
	if nLWP > 0 {
		s.eventsLWP.Add(nLWP)
	}
	if nHWT > 0 {
		s.eventsHWT.Add(nHWT)
	}
	if nGPU > 0 {
		s.eventsGPU.Add(nGPU)
	}
	if nMem > 0 {
		s.eventsMem.Add(nMem)
	}
	if nIO > 0 {
		s.eventsIO.Add(nIO)
	}
	return true
}

// leafSeq is one downstream leaf's rollup sequence accounting, the same
// window applyBatch runs per origin, one level up: epoch is the leaf
// process incarnation, seq its rollup counter within the epoch (a leaf
// burns a seq on every flush attempt, so an abandoned shipment shows up as
// a lost rollup).
type leafSeq struct {
	seq seqWindow //zerosum:guardedby Server.leafMu
}

// admitRollup decides whether a rollup is new data or a replay that must
// not be merged again. The answer only gates whole-rollup replays (a retry
// racing a lost ack, a restarted leaf resending); the embedded batches
// still run the regular per-origin dedup afterwards, which is what catches
// the same agent batch arriving via two different leaf incarnations.
func (s *Server) admitRollup(leafID string, epoch, seq uint64) bool {
	s.leafMu.Lock()
	defer s.leafMu.Unlock()
	ls := s.leafSeqs[leafID]
	if ls == nil {
		ls = &leafSeq{}
		s.leafSeqs[leafID] = ls
	}
	verdict, gap := ls.seq.admit(epoch, seq)
	if gap > 0 {
		s.lostRollups.Add(gap)
	}
	switch verdict {
	case seqDuplicate:
		s.dupRollups.Add(1)
		return false
	case seqRecovered:
		s.recoveredRollups.Add(1)
	}
	return true
}

// applyRollup validates and merges one rollup frame. The structure is
// walked — every sub-payload sized and sliced — before (epoch, seq) is
// committed to the leaf's dedup state, so a structurally damaged rollup
// never burns a sequence number; after that point, each embedded batch
// and snapshot applies through the regular ingest paths (per-origin
// dedup included). A sub-payload that fails to decode despite the frame
// passing its CRC (an encoder bug, not line damage) is skipped and
// surfaces as the request's error while the rest of the rollup still
// merges.
func (s *Server) applyRollup(payload []byte, bb *BatchBuf) error {
	var view rollupView
	if err := walkRollupPayload(payload, &view); err != nil {
		return err
	}
	s.rollupFrames.Add(1)
	if !s.admitRollup(view.leafID, view.leafEpoch, view.seq) {
		return nil // replay: everything it carries was already accounted
	}
	var firstErr error
	for i, body := range view.batches {
		b, err := DecodeBatchPayloadInto(body, bb)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("aggd: rollup batch %d: %w", i, err)
			}
			continue
		}
		if !s.applyBatch(b) {
			s.rollupSkippedEvents.Add(uint64(len(b.Events)))
		}
	}
	for i, body := range view.snaps {
		msg, err := DecodeSnapshotPayload(body)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("aggd: rollup snapshot %d: %w", i, err)
			}
			continue
		}
		s.applySnapshot(msg)
	}
	return firstErr
}

// handleHealthz answers liveness probes: agents picking a failover target
// and operators wiring load balancers both ask this before trusting an
// endpoint with traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := fmt.Fprintf(w, "{\"status\":\"ok\",\"leaf\":%t}\n", s.fwd != nil); err != nil {
		s.writeErrors.Add(1)
	}
}

// TSDB metric names for the streamed sample kinds. The per-thread LWP and
// per-CPU HWT families reuse the series key's TID field for their natural
// sub-identity (thread ID, CPU index, GPU index); node-wide samples use
// TID 0.
const (
	metricLWPUserPct   = "lwp.user_pct"
	metricLWPSysPct    = "lwp.sys_pct"
	metricLWPVCtx      = "lwp.vctx"
	metricLWPNVCtx     = "lwp.nvctx"
	metricLWPStalled   = "lwp.stalled"
	metricHWTIdlePct   = "hwt.idle_pct"
	metricHWTSysPct    = "hwt.sys_pct"
	metricHWTUserPct   = "hwt.user_pct"
	metricMemFreeKB    = "mem.free_kb"
	metricMemRSSKB     = "mem.rss_kb"
	metricIOReadBytes  = "io.read_bytes"
	metricIOWriteBytes = "io.write_bytes"
)

// gpuMetricNames maps the sampler's GPU metric labels to stable series
// names; unknown labels fall through to a "gpu."-prefixed copy (an
// allocation, but only for metrics outside the known sampler set).
var gpuMetricNames = map[string]string{
	"Device Busy %": "gpu.busy_pct",
}

func gpuMetricName(label string) string {
	if name, ok := gpuMetricNames[label]; ok {
		return name
	}
	return "gpu." + label
}

func boolSample(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func (s *Server) applySnapshot(msg *SnapshotMsg) {
	now := s.cfg.Now()
	js := s.job(msg.Job)
	sh := js.shardFor(rankKey{node: msg.Node, rank: msg.Rank})
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rs := sh.rank(rankKey{node: msg.Node, rank: msg.Rank})
	rs.lastRecv = now
	s.store.SetSnapshot(msg.Job, msg.Node, msg.Rank, msg.Snapshot, msg.CommRow)
	s.ingestSnapshots.Add(1)
	if s.fwd != nil {
		// Safe to hold past this call: the decoded document is freshly
		// allocated per frame, never pooled.
		s.fwd.EnqueueSnapshot(msg)
	}
}

// snapshots returns the job's stored snapshots ordered by (rank, node) so
// the fold visits them in the same order a single-process aggregation of
// rank-sorted results would. The documents live in the TSDB store, which
// already yields them in that order.
func (s *Server) snapshots(job string) []core.Snapshot {
	var out []core.Snapshot
	s.store.EachSnapshot(job, func(node string, rank int, snap *core.Snapshot, row map[int]uint64) {
		out = append(out, *snap)
	})
	return out
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	js := s.lookupJob(id)
	if js == nil {
		http.Error(w, fmt.Sprintf("aggd: unknown job %q", id), http.StatusNotFound)
		return
	}
	snaps := s.snapshots(id)
	if len(snaps) == 0 {
		http.Error(w, fmt.Sprintf("aggd: job %q has no snapshots yet", id), http.StatusNotFound)
		return
	}
	summary, err := report.Aggregate(snaps, s.cfg.Thresholds)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, summary)
}

// HeatmapResponse is the JSON shape of /api/job/{id}/heatmap: Bytes[dst][src]
// is what rank dst received from rank src (Figure 5's matrix).
type HeatmapResponse struct {
	Job   string     `json:"job"`
	Ranks int        `json:"ranks"`
	Bytes [][]uint64 `json:"bytes"`
}

func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("metric") != "" {
		// TSDB view: series x time over an arbitrary window. The bare path
		// keeps serving the rank x rank communication matrix unchanged.
		s.handleTSDBHeatmap(w, r)
		return
	}
	id := r.PathValue("id")
	js := s.lookupJob(id)
	if js == nil {
		http.Error(w, fmt.Sprintf("aggd: unknown job %q", id), http.StatusNotFound)
		return
	}
	size := 0
	rows := make(map[int]map[int]uint64)
	// Ranks that streamed batches but have not snapshotted yet still size
	// the matrix.
	js.eachRank(func(key rankKey, rs *rankState) {
		if key.rank+1 > size {
			size = key.rank + 1
		}
	})
	// Reading the snapshot documents after the store's lock drops is safe:
	// SetSnapshot replaces a rank's document wholesale, never mutates it.
	s.store.EachSnapshot(id, func(node string, rank int, snap *core.Snapshot, row map[int]uint64) {
		if rank+1 > size {
			size = rank + 1
		}
		if snap.Size > size {
			size = snap.Size
		}
		if row != nil {
			rows[rank] = row
			for src := range row {
				if src+1 > size {
					size = src + 1
				}
			}
		}
	})
	resp := HeatmapResponse{Job: id, Ranks: size, Bytes: make([][]uint64, size)}
	for dst := range resp.Bytes {
		resp.Bytes[dst] = make([]uint64, size)
		for src, v := range rows[dst] {
			resp.Bytes[dst][src] = v
		}
	}
	s.writeJSON(w, resp)
}

// JobInfo is one entry of /api/jobs.
type JobInfo struct {
	Job       string `json:"job"`
	Nodes     int    `json:"nodes"`
	Ranks     int    `json:"ranks"`
	Snapshots int    `json:"snapshots"`
	Events    uint64 `json:"events"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var jobs []JobInfo
	s.eachJob(func(name string, js *jobStore) {
		info := JobInfo{Job: name, Snapshots: s.store.SnapshotCount(name)}
		nodes := map[string]bool{}
		//zerosum:locked rankShard.mu eachRank holds the shard lock around fn
		js.eachRank(func(key rankKey, rs *rankState) {
			info.Ranks++
			nodes[key.node] = true
			info.Events += rs.events
		})
		info.Nodes = len(nodes)
		jobs = append(jobs, info)
	})
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Job < jobs[j].Job })
	s.writeJSON(w, jobs)
}

// eachJob visits every job store; the callback must do its own locking.
func (s *Server) eachJob(fn func(name string, js *jobStore)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		names := make([]string, 0, len(sh.jobs))
		for name := range sh.jobs {
			names = append(names, name)
		}
		sh.mu.RUnlock()
		sort.Strings(names)
		for _, name := range names {
			sh.mu.RLock()
			js := sh.jobs[name]
			sh.mu.RUnlock()
			if js != nil {
				fn(name, js)
			}
		}
	}
}

// writeJSON renders a response body. Encoding failures here are almost
// always the client hanging up mid-response; the status line is already
// gone, so the error is counted (zerosum_response_write_errors_total)
// rather than reported.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.writeErrors.Add(1)
	}
}
