// Package obs is ZeroSum's self-observability layer: the monitor watching
// itself. The paper makes two operational promises — heartbeat-based
// progress detection (§3.3) and a measured monitoring overhead under 0.5 %
// (§4.1, Fig. 8) — and a monitor that is trusted in production must export
// evidence for both at runtime, not just in an offline evaluation. This
// package provides the three primitives the rest of the tree threads
// through its pipelines:
//
//   - Recorder: a fixed-capacity, lock-free span ring plus per-stage
//     cumulative statistics. Recording a span is a handful of atomic stores
//     — zero allocation, no locks — so it is legal inside //zerosum:hotpath
//     functions (the sampling tick, the ingest loop).
//   - SelfStats / Budget: the monitor's own cost accounted against the
//     process it observes, and the runtime watchdog that degrades sampling
//     (halves the rate) instead of silently violating the overhead budget.
//   - Dump: the /debug/obs JSON document (span dump + stage stats + self
//     stats) with a strict decoder, so external tooling — and the fuzzer —
//     can round-trip it.
//
// Readers (the /debug/obs handler, end-of-run reports) may run concurrently
// with writers: every slot is a seqlock over atomic words, so a torn read
// is detected and retried, never observed.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented pipeline stage. The set covers both
// sides of the deployment: the per-process monitor (tick, scan/parse,
// sample, export) and the aggregation service (ingest, decode, merge).
type Stage uint8

// Instrumented stages, in pipeline order.
const (
	// StageTick is one whole Monitor.Tick: every phase below plus the
	// bookkeeping between them.
	StageTick Stage = iota
	// StageScan is the per-LWP read+parse phase of a tick.
	StageScan
	// StageSample is the node-scoped phase: /proc/stat, meminfo, process
	// status/io and GPU sampling.
	StageSample
	// StageExport is one shipment on the data-out path (an aggd agent batch
	// flush or a leaf's rollup).
	StageExport
	// StageIngest is one aggregator ingest request, body to merge.
	StageIngest
	numStages
)

var stageNames = [numStages]string{
	StageTick:   "tick",
	StageScan:   "scan",
	StageSample: "sample",
	StageExport: "export",
	StageIngest: "ingest",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Span is one recorded interval of one stage.
type Span struct {
	Stage   Stage
	StartNS int64 // wall-clock start, Unix nanoseconds
	DurNS   int64 // duration in nanoseconds
}

// slot is one seqlock-protected ring entry. The sequence is even when the
// slot is stable; a writer claims it by CAS-ing the sequence from even to
// odd, stores the words, then makes it even again. The CAS claim means at
// most one writer ever owns a slot: a second Record whose pos collides
// after ring wrap loses the CAS and drops its span body instead of
// co-writing, so a reader that validates an unchanged even sequence has
// never seen a torn span. A reader that observes an odd sequence, or a
// sequence that changed across its reads, discards the slot. All words are
// atomics, so concurrent access is race-detector clean by construction.
type slot struct {
	seq   atomic.Uint64
	stage atomic.Uint32
	start atomic.Int64
	dur   atomic.Int64
}

// stageAgg is one stage's cumulative accounting.
type stageAgg struct {
	count atomic.Uint64
	errs  atomic.Uint64
	total atomic.Int64 // summed duration, ns
	max   atomic.Int64 // worst single span, ns
}

// StageStats is the exported view of one stage's accumulated spans.
type StageStats struct {
	Stage   string  `json:"stage"`
	Count   uint64  `json:"count"`
	Errors  uint64  `json:"errors,omitempty"`
	TotalNS int64   `json:"total_ns"`
	MaxNS   int64   `json:"max_ns"`
	MeanNS  float64 `json:"mean_ns"`
}

// Recorder holds the span ring and the per-stage statistics. The zero
// value is not usable; construct with NewRecorder. A nil *Recorder is a
// valid no-op sink: every method tolerates it, so instrumented code does
// not branch on "is self-observability enabled".
type Recorder struct {
	mask  uint64
	pos   atomic.Uint64 // next ring slot (monotonic; masked on use)
	slots []slot
	stats [numStages]stageAgg

	// slotDrops counts span bodies discarded because the claimed ring slot
	// was still owned by a concurrent writer (only reachable when writers
	// outpace the ring enough to wrap onto each other). The per-stage stats
	// still account the span; only the ring entry is lost.
	slotDrops atomic.Uint64
}

// DefaultRingCapacity is the span ring size NewRecorder(0) uses: enough
// for ~1 minute of 1 Hz ticks with all stages instrumented.
const DefaultRingCapacity = 256

// NewRecorder builds a recorder whose ring holds capacity spans, rounded
// up to a power of two (0 means DefaultRingCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Recorder{mask: uint64(n - 1), slots: make([]slot, n)}
}

// Record stores one completed span. Safe for concurrent use from any
// number of writers; allocation-free; a handful of atomic operations.
//
//zerosum:hotpath
func (r *Recorder) Record(st Stage, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.RecordNS(st, start.UnixNano(), int64(dur))
}

// RecordNS is Record for callers that already hold raw nanosecond values.
//
//zerosum:hotpath
func (r *Recorder) RecordNS(st Stage, startNS, durNS int64) {
	if r == nil || st >= numStages {
		return
	}
	if durNS < 0 {
		durNS = 0
	}
	r.recordSlot(st, startNS, durNS)
}

// recordSlot claims a ring slot and publishes the span through its seqlock.
//
//zerosum:hotpath
func (r *Recorder) recordSlot(st Stage, startNS, durNS int64) {
	i := (r.pos.Add(1) - 1) & r.mask
	s := &r.slots[i]
	seq := s.seq.Load()
	if seq&1 == 0 && s.seq.CompareAndSwap(seq, seq+1) {
		// Claimed (odd): this goroutine is the slot's only writer.
		s.stage.Store(uint32(st))
		s.start.Store(startNS)
		s.dur.Store(durNS)
		s.seq.Store(seq + 2) // even again: slot is stable
	} else {
		// Another writer still owns the slot (the ring wrapped onto an
		// in-flight Record). Co-writing would let a reader validate a torn
		// span, so drop the ring entry; the stats below still count it.
		r.slotDrops.Add(1)
	}

	agg := &r.stats[st]
	agg.count.Add(1)
	agg.total.Add(durNS)
	for {
		old := agg.max.Load()
		if durNS <= old || agg.max.CompareAndSwap(old, durNS) {
			break
		}
	}
}

// RecordError counts a failed pass through a stage (the span itself is
// usually not recorded: error paths abort mid-stage).
//
//zerosum:hotpath
func (r *Recorder) RecordError(st Stage) {
	if r == nil || st >= numStages {
		return
	}
	r.stats[st].errs.Add(1)
}

// DroppedSpans returns how many span bodies were discarded because their
// ring slot was mid-write by a concurrent Record (their stage stats were
// still counted).
func (r *Recorder) DroppedSpans() uint64 {
	if r == nil {
		return 0
	}
	return r.slotDrops.Load()
}

// Count returns how many spans of st have been recorded.
func (r *Recorder) Count(st Stage) uint64 {
	if r == nil || st >= numStages {
		return 0
	}
	return r.stats[st].count.Load()
}

// TotalNS returns the summed duration of every recorded span of st.
func (r *Recorder) TotalNS(st Stage) int64 {
	if r == nil || st >= numStages {
		return 0
	}
	return r.stats[st].total.Load()
}

// Stats snapshots the per-stage statistics, skipping stages never seen.
func (r *Recorder) Stats() []StageStats {
	if r == nil {
		return nil
	}
	out := make([]StageStats, 0, numStages)
	for st := Stage(0); st < numStages; st++ {
		agg := &r.stats[st]
		n := agg.count.Load()
		e := agg.errs.Load()
		if n == 0 && e == 0 {
			continue
		}
		s := StageStats{
			Stage:   st.String(),
			Count:   n,
			Errors:  e,
			TotalNS: agg.total.Load(),
			MaxNS:   agg.max.Load(),
		}
		if n > 0 {
			s.MeanNS = float64(s.TotalNS) / float64(n)
		}
		out = append(out, s)
	}
	return out
}

// Spans appends a consistent snapshot of the ring's current spans to dst
// (oldest first) and returns the extended slice. Slots being concurrently
// rewritten are skipped, never returned torn.
func (r *Recorder) Spans(dst []Span) []Span {
	if r == nil {
		return dst
	}
	pos := r.pos.Load()
	n := uint64(len(r.slots))
	begin := uint64(0)
	if pos > n {
		begin = pos - n
	}
	for i := begin; i < pos; i++ {
		s := &r.slots[i&r.mask]
		const maxTries = 4
		for try := 0; try < maxTries; try++ {
			s1 := s.seq.Load()
			if s1%2 != 0 {
				continue // mid-write; retry
			}
			sp := Span{
				Stage:   Stage(s.stage.Load()),
				StartNS: s.start.Load(),
				DurNS:   s.dur.Load(),
			}
			if s.seq.Load() != s1 {
				continue // torn; retry
			}
			if sp.Stage < numStages {
				dst = append(dst, sp)
			}
			break
		}
	}
	return dst
}
