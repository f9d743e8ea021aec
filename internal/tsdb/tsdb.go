// Package tsdb is ZeroSum's embedded time-series store: the per-job sample
// history the aggregation tier keeps so "what happened to rank 3 between
// minute 10 and 20" stays answerable after the job ends. The paper's export
// path (§3.6) anticipates forwarding samples to a data service; monitoring
// stacks built around the same collector model (MPCDF, LIKWID) pair it with
// a job time-series store, and this package is that store — stdlib-only and
// in-process, so zsaggd needs no external database.
//
// Layout. Samples live in per-(node, rank, tid, metric) series under a
// per-job database. Each series appends into a head chunk using the
// Facebook Gorilla encoding — delta-of-delta timestamps and XOR-compressed
// float64 values packed into a bitstream — and seals the head into an
// immutable chunk when the sample time crosses a block boundary (Options.
// Block) or the chunk fills. A sealed chunk keeps only its bitstream:
// queries decompress the chunks whose time range overlaps the window and
// fold their samples, and untouched series and blocks stay compressed. The
// ZSTB dump (MarshalJob) carries the same bits: each chunk's bounds, count
// and bitstream, and no precomputed aggregate.
// Each shard also lists its series by metric, so a query visits the series
// of the one metric it names, not every series of the job.
// Retention (Options.Retention) evicts chunks whose newest sample has aged
// out of the per-job sample clock, the head of a series that stopped
// receiving samples included.
//
// Time. The store's clock is the job's sample clock — nanoseconds of
// TimeSec, the seconds-since-start stamp every exported sample carries —
// not the wall clock. TimeToNanos converts at the ingest boundary; inside
// the store timestamps are plain int64 nanos, which is what makes the
// Gorilla codec lossless end to end.
//
// The store also keeps each rank's end-of-run snapshot and communication
// row (SetSnapshot), so the aggregator's summary and heatmap endpoints are
// views over the store rather than over separate live state.
package tsdb

import (
	"math"
	"time"
)

// Default tuning. The block span is in sample time (job seconds), not wall
// time.
const (
	// DefaultBlock is the time span one sealed chunk covers.
	DefaultBlock = time.Minute
	// maxChunkSamples seals a chunk early so one series flooding samples
	// inside a single block cannot grow a chunk without bound.
	maxChunkSamples = 16384
)

// Options tunes a Store. The zero value is usable: defaults fill in, and
// zero Retention keeps everything.
type Options struct {
	// Block is the sample-time span of one chunk; crossing a block boundary
	// seals the head chunk into an immutable one (default DefaultBlock).
	Block time.Duration
	// Downsample is ignored: neither the store nor its ZSTB dump keeps
	// downsampled rollups.
	//
	// Deprecated: the field stays only because bench/pipeline.go:118 sets
	// it; it goes with that line (ROADMAP item 1).
	Downsample time.Duration
	// Retention bounds how far back of the job's newest sample chunks, heads
	// included, are kept; 0 keeps everything. Eviction happens when a
	// series seals a chunk and on EnforceRetention. Snapshots are never
	// evicted: the end-of-run summary must survive the samples.
	Retention time.Duration
}

func (o Options) withDefaults() Options {
	if o.Block <= 0 {
		o.Block = DefaultBlock
	}
	if o.Retention < 0 {
		o.Retention = 0
	}
	return o
}

// SeriesKey identifies one series within a job. TID is the finest label the
// metric has: the thread id for LWP metrics, the hardware thread for HWT
// metrics, the device index for GPU metrics, and 0 for node- or
// process-wide metrics.
type SeriesKey struct {
	Node   string
	Rank   int
	TID    int
	Metric string
}

// Point is one (time, value) pair of a query result.
type Point struct {
	T int64 // sample-clock nanoseconds
	V float64
}

// Sec returns the point's time on the job's sample clock in seconds.
func (p Point) Sec() float64 { return float64(p.T) / 1e9 }

// TimeToNanos converts a sample's TimeSec stamp to the store's integer
// sample clock. The conversion happens exactly once, at the ingest
// boundary; everything after it is lossless int64 arithmetic.
func TimeToNanos(sec float64) int64 { return int64(math.Round(sec * 1e9)) }

// NanosToSec is the inverse rendering for query responses.
func NanosToSec(t int64) float64 { return float64(t) / 1e9 }

// JobStats is a point-in-time accounting of one job's store.
type JobStats struct {
	Series         int    // live series
	SealedChunks   int    // immutable chunks currently held
	Samples        uint64 // samples ever appended (not reduced by eviction)
	Bytes          uint64 // encoded bytes currently held (head + sealed)
	EvictedChunks  uint64 // sealed chunks dropped by retention
	EvictedSamples uint64 // samples inside those chunks
	Snapshots      int    // rank snapshots stored
	MaxTimeNanos   int64  // newest sample time seen (0 if no samples)
}

// zigzag maps signed deltas onto unsigned so magnitude, not sign, decides
// the encoding bucket.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// floorDiv is integer division rounding toward negative infinity, so time
// bucketing stays consistent should a sample clock ever go negative.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
