package aggd

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/obs"
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
	// TSDB tunes the embedded time-series store (block width, retention).
	// The zero value takes the store's defaults. Root only: a leaf builds
	// no store and ignores it.
	TSDB tsdb.Options
	// Forward, when non-nil, runs the server as a leaf of an aggregation
	// tree: a pure relay that queues every admitted batch and snapshot
	// document to a Forwarder shipping rollup frames to Forward.Upstream,
	// and stores nothing itself. Upstream and LeafID are required —
	// NewServer panics on a Forward config it cannot start, since a leaf
	// that silently stops forwarding is worse than one that fails to boot.
	Forward *ForwardConfig
}

// Server accepts agent streams and serves the aggregated views.
type Server struct {
	cfg    ServerConfig
	shards [nShards]shard
	obs    *obs.Recorder // ingest spans + stage stats, served at /debug/obs
	store  *tsdb.Store   // every admitted sample, compressed and queryable; nil on a leaf
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

	// Admitted events by export.EventKind, heartbeats (which carry no
	// sample) left out. Dedup runs before these, so each counts a kind's
	// events exactly once across retries and replays — the soak's
	// sample-conservation audit divides TSDB sample counts by them.
	kindEvents [export.EventHeartbeat]atomic.Uint64

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
		EventsLWP:        s.kindEvents[export.EventLWP].Load(),
		EventsHWT:        s.kindEvents[export.EventHWT].Load(),
		EventsGPU:        s.kindEvents[export.EventGPU].Load(),
		EventsMem:        s.kindEvents[export.EventMem].Load(),
		EventsIO:         s.kindEvents[export.EventIO].Load(),

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
	h := fnv1a(key.node)
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

// rankState is one (node, rank) stream: what relaying and the /api/jobs
// census need, plus, on a root, the live views. Every field is guarded by
// the owning rankShard's mutex — rankState cannot name it as a sibling, so
// the annotations use the lock-class form.
type rankState struct {
	lastRecv time.Time  //zerosum:guardedby rankShard.mu server receipt time of the latest frame
	events   uint64     //zerosum:guardedby rankShard.mu
	seq      seqWindow  //zerosum:guardedby rankShard.mu the agent's (epoch, batch seq) dedup
	views    *rankViews //zerosum:guardedby rankShard.mu nil on a leaf
}

// rankViews is a root's live view of one stream: the latest sample per
// resource for /metrics, and cached tsdb series handles, resolved once per
// stream metric and valid for the store's lifetime (series are never
// deleted): hashing the struct-keyed series map per sample dominated the
// ingest profile, so the batch path pays the lookup only on each stream's
// first event.
type rankViews struct {
	lwp       map[int]*lwpView              //zerosum:guardedby rankShard.mu per TID
	hwt       map[int]*hwtView              //zerosum:guardedby rankShard.mu per CPU
	gpuBusy   map[int]float64               //zerosum:guardedby rankShard.mu
	gpuSeries map[gpuSeriesKey]*tsdb.Series //zerosum:guardedby rankShard.mu
	// stallEvents counts false→true transitions of a thread's stalled flag:
	// the stalled gauge drops back to zero once a stall clears (or the
	// thread dies), so this cumulative counter is what proves a stall
	// happened.
	stallEvents                          uint64       //zerosum:guardedby rankShard.mu
	memFree, memRSS                      uint64       //zerosum:guardedby rankShard.mu
	memFreeS, memRSSS, ioReadS, ioWriteS *tsdb.Series //zerosum:guardedby rankShard.mu
}

// NewServer builds an aggregator — the root of a tree (or a flat
// single-server deployment) when cfg.Forward is nil, a leaf forwarding
// rollups upstream when it is set.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{
		cfg:      cfg,
		obs:      obs.NewRecorder(0),
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
	} else {
		s.store = tsdb.NewStore(cfg.TSDB)
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
// tick. It is nil on a leaf, which relays and stores nothing.
func (s *Server) TSDB() *tsdb.Store { return s.store }

// Restore imports a ZSTB dump (the body /api/job/{id}/tsdb serves) into a
// root's TSDB and registers its job, so the job's /api/job/{id}/* reads
// serve the restored samples. A dump carries no snapshots: /summary answers
// "no snapshots yet" until the job's ranks report again. It returns the
// job and the number of samples imported.
func (s *Server) Restore(dump []byte) (job string, samples int, err error) {
	if s.store == nil {
		return "", 0, errors.New("aggd: a leaf relays and has no TSDB to restore into")
	}
	bs, err := tsdb.UnmarshalBlocks(dump)
	if err != nil {
		return "", 0, err
	}
	n, err := s.store.ImportBlockSet(bs)
	if err != nil {
		return bs.Job, n, err
	}
	s.job(bs.Job)
	return bs.Job, n, nil
}

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
//
// A leaf stores nothing, so it serves no /api/job/{id}/* reads (404).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/ingest", s.handleIngest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/jobs", s.handleJobs)
	mux.Handle("GET /debug/obs", obs.Handler("zsaggd", s.obs, nil))
	if s.store != nil {
		mux.HandleFunc("GET /api/job/{id}/summary", s.handleSummary)
		mux.HandleFunc("GET /api/job/{id}/heatmap", s.handleHeatmap)
		mux.HandleFunc("GET /api/job/{id}/query", s.handleQuery)
		mux.HandleFunc("GET /api/job/{id}/topk", s.handleTopK)
		mux.HandleFunc("GET /api/job/{id}/tsdb", s.handleTSDBDump)
	}
	return mux
}

// fnv1a is hash/fnv's 32-bit FNV-1a of s, hashed inline: a hash.Hash
// escapes to the heap on every call.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

func (s *Server) job(name string) *jobStore {
	sh := &s.shards[fnv1a(name)%nShards]
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
	sh := &s.shards[fnv1a(name)%nShards]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.jobs[name]
}

// rank returns the shard's state for key, creating it on first contact,
// with live views when the server keeps them (a root).
//
//zerosum:locked mu callers ingest under the shard lock
func (sh *rankShard) rank(key rankKey, withViews bool) *rankState {
	rs := sh.ranks[key]
	if rs == nil {
		rs = &rankState{}
		if withViews {
			rs.views = &rankViews{
				lwp:       make(map[int]*lwpView),
				hwt:       make(map[int]*hwtView),
				gpuBusy:   make(map[int]float64),
				gpuSeries: make(map[gpuSeriesKey]*tsdb.Series),
			}
		}
		if sh.ranks == nil {
			sh.ranks = make(map[rankKey]*rankState)
		}
		sh.ranks[key] = rs
	}
	return rs
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
