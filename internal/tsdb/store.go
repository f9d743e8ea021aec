package tsdb

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"zerosum/internal/core"
)

// nSeriesShards fans one job's series map over independent locks, mirroring
// the aggregator's rank sharding: concurrent ingest streams hash apart and
// append without serializing on one mutex.
const nSeriesShards = 8

// Store is the embedded multi-job time-series database. All methods are
// safe for concurrent use.
type Store struct {
	opts Options

	mu   sync.RWMutex
	jobs map[string]*jobDB //zerosum:guardedby mu
}

type jobDB struct {
	shards [nSeriesShards]seriesShard

	maxT           atomic.Int64
	samples        atomic.Uint64
	evictedChunks  atomic.Uint64
	evictedSamples atomic.Uint64

	snapMu sync.RWMutex
	snaps  map[snapKey]*snapDoc //zerosum:guardedby snapMu
}

type seriesShard struct {
	mu     sync.Mutex
	series map[SeriesKey]*Series //zerosum:guardedby mu
	// byMetric lists the same series under their metric name, in key
	// order: the read path's index, so a query visits the series of the
	// metric it asks for and none of the shard's others, and gets them
	// already ordered.
	byMetric map[string][]*Series //zerosum:guardedby mu
}

type snapKey struct {
	node string
	rank int
}

// snapDoc is one rank's end-of-run document: the report snapshot and the
// communication-matrix row. Docs are replaced wholesale and never mutated,
// so readers may use them after the lock drops.
type snapDoc struct {
	snap *core.Snapshot
	row  map[int]uint64
}

// NewStore builds a store; zero-value opts take the defaults.
func NewStore(opts Options) *Store {
	return &Store{opts: opts.withDefaults(), jobs: make(map[string]*jobDB)}
}

func (st *Store) job(name string) *jobDB {
	st.mu.RLock()
	db := st.jobs[name]
	st.mu.RUnlock()
	if db != nil {
		return db
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if db = st.jobs[name]; db == nil {
		db = &jobDB{}
		db.maxT.Store(minInt64)
		st.jobs[name] = db
	}
	return db
}

// lookupJob returns nil for an unknown job.
func (st *Store) lookupJob(name string) *jobDB {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.jobs[name]
}

const minInt64 = -1 << 63

// shardFor hashes the series' origin inline (FNV-1a over node bytes, then
// rank) — the ingest path cannot afford a hash.Hash allocation. Sharding by
// (node, rank) rather than by the full key puts every series of one rank's
// batch behind a single lock, so a BatchAppender pays one acquire per batch
// instead of one per sample; distinct ranks still hash apart and append
// concurrently, mirroring the aggregator's rank sharding.
//
//zerosum:hotpath
func (db *jobDB) shardFor(key SeriesKey) *seriesShard {
	return db.shardForOrigin(key.Node, key.Rank)
}

//zerosum:hotpath
func (db *jobDB) shardForOrigin(node string, rank int) *seriesShard {
	h := uint32(2166136261)
	for i := 0; i < len(node); i++ {
		h = (h ^ uint32(node[i])) * 16777619
	}
	r := uint32(rank)
	for i := 0; i < 4; i++ {
		h = (h ^ (r & 0xff)) * 16777619
		r >>= 8
	}
	return &db.shards[h%nSeriesShards]
}

// Append lands one sample on the job's (key) series, creating job and
// series on first touch. t is on the sample clock (TimeToNanos of the
// sample's TimeSec). Steady-state appends — warm series, no block boundary
// — are allocation-free. Ingest loops that land many samples per shipment
// should use BeginBatch, which amortizes this function's per-sample
// bookkeeping (job lookup, shard lock, retention math, counter updates)
// over the whole batch.
func (st *Store) Append(job string, key SeriesKey, t int64, v float64) {
	ba := st.BeginBatch(job, key.Node, key.Rank)
	ba.Append(ba.Resolve(key), t, v)
	ba.End()
}

// BatchAppender is the amortized ingest path: BeginBatch resolves the job
// and locks the origin's series shard once, Resolve/Append land samples
// without further locking or hashing, and End releases the shard and folds
// the batch's sample count, eviction counters, and high-water timestamp
// into the job's accounting in one pass. The zero value is not usable;
// every BeginBatch must be paired with exactly one End.
type BatchAppender struct {
	st     *Store
	db     *jobDB
	sh     *seriesShard
	block  int64
	cutoff int64

	samples   uint64
	maxT      int64
	evChunks  uint64
	evSamples uint64
}

// BeginBatch locks the series shard that owns every (node, rank) series of
// job and returns an appender over it. The caller must call End (and must
// not touch the store's query API in between, shard locks do not nest).
func (st *Store) BeginBatch(job, node string, rank int) BatchAppender {
	db := st.job(job)
	cutoff := int64(-1)
	if st.opts.Retention > 0 {
		if max := db.maxT.Load(); max != minInt64 {
			cutoff = max - int64(st.opts.Retention)
		}
	}
	sh := db.shardForOrigin(node, rank)
	sh.mu.Lock()
	return BatchAppender{st: st, db: db, sh: sh,
		block: int64(st.opts.Block), cutoff: cutoff, maxT: minInt64}
}

// Resolve returns the shard-owned series for key, creating it on first
// touch. The handle stays valid for the store's lifetime (series are never
// deleted, only their chunks age out), so an ingester may cache it across
// batches and skip the map hash entirely — but may only pass it to Append
// between a BeginBatch and End that cover the same (node, rank) origin.
// The shard lock is held here: BeginBatch acquired it.
func (a *BatchAppender) Resolve(key SeriesKey) *Series {
	s := a.sh.series[key] //zerosum:nolock BeginBatch acquired the shard lock
	if s == nil {
		s = &Series{Key: key}
		if a.sh.series == nil { //zerosum:nolock BeginBatch acquired the shard lock
			a.sh.series = make(map[SeriesKey]*Series)  //zerosum:nolock BeginBatch acquired the shard lock
			a.sh.byMetric = make(map[string][]*Series) //zerosum:nolock BeginBatch acquired the shard lock
		}
		a.sh.series[key] = s              //zerosum:nolock BeginBatch acquired the shard lock
		list := a.sh.byMetric[key.Metric] //zerosum:nolock BeginBatch acquired the shard lock
		at := sort.Search(len(list), func(i int) bool { return keyLess(key, list[i].Key) })
		a.sh.byMetric[key.Metric] = slices.Insert(list, at, s) //zerosum:nolock BeginBatch acquired the shard lock
	}
	return s
}

// Append lands one sample on a series resolved under this appender's
// origin. The shard lock is held here: BeginBatch acquired it.
//
//zerosum:hotpath
func (a *BatchAppender) Append(s *Series, t int64, v float64) {
	ev := s.append(t, v, a.block, a.cutoff)
	a.samples++
	if ev.chunks > 0 {
		a.evChunks += uint64(ev.chunks)
		a.evSamples += uint64(ev.samples)
	}
	if t > a.maxT {
		a.maxT = t
	}
}

// End unlocks the shard and commits the batch's accounting.
//
//zerosum:hotpath
func (a *BatchAppender) End() {
	a.sh.mu.Unlock()
	if a.samples > 0 {
		a.db.samples.Add(a.samples)
	}
	if a.evChunks > 0 {
		a.db.evictedChunks.Add(a.evChunks)
		a.db.evictedSamples.Add(a.evSamples)
	}
	t := a.maxT
	if t == minInt64 {
		return
	}
	for {
		cur := a.db.maxT.Load()
		if t <= cur || a.db.maxT.CompareAndSwap(cur, t) {
			return
		}
	}
}

// EnforceRetention sweeps every series of every job against the retention
// horizon. Appending already retains at each block boundary; this exists
// for series that stopped receiving samples (a dead rank's history, head
// included, still ages out) and is what a daemon calls on a housekeeping tick.
func (st *Store) EnforceRetention() {
	if st.opts.Retention <= 0 {
		return
	}
	st.mu.RLock()
	dbs := make([]*jobDB, 0, len(st.jobs))
	for _, db := range st.jobs {
		dbs = append(dbs, db)
	}
	st.mu.RUnlock()
	for _, db := range dbs {
		max := db.maxT.Load()
		if max == minInt64 {
			continue
		}
		cutoff := max - int64(st.opts.Retention)
		for i := range db.shards {
			sh := &db.shards[i]
			sh.mu.Lock()
			for _, s := range sh.series {
				ev := s.retain(cutoff)
				if ev.chunks > 0 {
					db.evictedChunks.Add(uint64(ev.chunks))
					db.evictedSamples.Add(uint64(ev.samples))
				}
			}
			sh.mu.Unlock()
		}
	}
}

// SetSnapshot stores (replacing) a rank's end-of-run snapshot and
// communication row. The snapshot is copied; the row is retained as given
// and must not be mutated afterwards.
func (st *Store) SetSnapshot(job, node string, rank int, snap core.Snapshot, row map[int]uint64) {
	db := st.job(job)
	db.snapMu.Lock()
	if db.snaps == nil {
		db.snaps = make(map[snapKey]*snapDoc)
	}
	db.snaps[snapKey{node: node, rank: rank}] = &snapDoc{snap: &snap, row: row}
	db.snapMu.Unlock()
}

// EachSnapshot visits the job's snapshots ordered by (rank, node) — the
// order a single-process aggregation of rank-sorted results would see.
// The snapshot and row are immutable once stored; the callback may retain
// them.
func (st *Store) EachSnapshot(job string, fn func(node string, rank int, snap *core.Snapshot, row map[int]uint64)) {
	db := st.lookupJob(job)
	if db == nil {
		return
	}
	db.snapMu.RLock()
	keys := make([]snapKey, 0, len(db.snaps))
	for k := range db.snaps {
		keys = append(keys, k)
	}
	docs := make([]*snapDoc, 0, len(keys))
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].node < keys[j].node
	})
	for _, k := range keys {
		docs = append(docs, db.snaps[k])
	}
	db.snapMu.RUnlock()
	for i, k := range keys {
		fn(k.node, k.rank, docs[i].snap, docs[i].row)
	}
}

// SnapshotCount returns how many rank snapshots the job holds.
func (st *Store) SnapshotCount(job string) int {
	db := st.lookupJob(job)
	if db == nil {
		return 0
	}
	db.snapMu.RLock()
	defer db.snapMu.RUnlock()
	return len(db.snaps)
}

// Jobs lists the store's jobs, sorted.
func (st *Store) Jobs() []string {
	st.mu.RLock()
	names := make([]string, 0, len(st.jobs))
	for name := range st.jobs {
		names = append(names, name)
	}
	st.mu.RUnlock()
	sort.Strings(names)
	return names
}

// MaxTime returns the newest sample time the job has seen, on the sample
// clock (0 for an unknown job or one without samples). It reads one
// atomic; JobStats reports the same value but walks every series to do it.
func (st *Store) MaxTime(job string) int64 {
	db := st.lookupJob(job)
	if db == nil {
		return 0
	}
	return db.newest()
}

// newest is the job's high-water timestamp, 0 before the first sample.
func (db *jobDB) newest() int64 {
	if max := db.maxT.Load(); max != minInt64 {
		return max
	}
	return 0
}

// JobStats snapshots one job's accounting (zero value for unknown jobs).
// It walks every series under the shard locks to count chunks and bytes;
// callers that only need the newest timestamp use MaxTime.
func (st *Store) JobStats(job string) JobStats {
	var js JobStats
	db := st.lookupJob(job)
	if db == nil {
		return js
	}
	js.Samples = db.samples.Load()
	js.EvictedChunks = db.evictedChunks.Load()
	js.EvictedSamples = db.evictedSamples.Load()
	js.MaxTimeNanos = db.newest()
	js.Snapshots = st.SnapshotCount(job)
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		js.Series += len(sh.series)
		for _, s := range sh.series {
			js.SealedChunks += len(s.sealed)
			js.Bytes += uint64(s.bytes())
		}
		sh.mu.Unlock()
	}
	return js
}

// eachShard runs fn under each shard lock of the job in shard order; fn
// must not call back into the store.
func (db *jobDB) eachShard(fn func(sh *seriesShard)) {
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		fn(sh)
		sh.mu.Unlock()
	}
}
