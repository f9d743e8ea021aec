package tsdb

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// AggKind selects how samples inside one step bucket (or one top-k window)
// reduce to a value.
type AggKind int

// Aggregations.
const (
	AggMean AggKind = iota
	AggMin
	AggMax
	AggSum
	AggCount
	AggLast
	AggDelta // last - first: the rate numerator for cumulative counters
)

// aggNames is indexed by kind; ParseAgg and String both read it.
var aggNames = [...]string{
	AggMean: "mean", AggMin: "min", AggMax: "max", AggSum: "sum",
	AggCount: "count", AggLast: "last", AggDelta: "delta",
}

// ParseAgg resolves an aggregation name ("" means mean).
func ParseAgg(s string) (AggKind, error) {
	if s == "" {
		return AggMean, nil
	}
	for k, name := range aggNames {
		if name == s {
			return AggKind(k), nil
		}
	}
	return 0, fmt.Errorf("tsdb: unknown aggregation %q (want mean|min|max|sum|count|last|delta)", s)
}

// String names the aggregation for response rendering.
func (k AggKind) String() string {
	if k < 0 || int(k) >= len(aggNames) {
		return "mean"
	}
	return aggNames[k]
}

// maxQueryBuckets bounds one query's bucket allocation so a tiny step over
// a huge window cannot size an arbitrary slice.
const maxQueryBuckets = 1 << 20

// QueryOpts selects series and shapes the evaluation. The window is
// half-open: [Start, End) on the sample clock.
type QueryOpts struct {
	Metric string // required, exact match
	Node   string // "" matches every node
	Rank   int    // -1 matches every rank
	TID    int    // -1 matches every tid
	Start  int64
	End    int64
	// Step > 0 buckets the window into [Start+i*Step, Start+(i+1)*Step) and
	// reduces each bucket with Agg; Step == 0 returns raw samples.
	Step int64
	Agg  AggKind
}

// matches checks the label selectors; the metric is selected by the
// shards' byMetric index before a key gets here.
func (o QueryOpts) matches(key SeriesKey) bool {
	return (o.Node == "" || key.Node == o.Node) &&
		(o.Rank < 0 || key.Rank == o.Rank) &&
		(o.TID < 0 || key.TID == o.TID)
}

func (o QueryOpts) validate() (nBuckets int64, err error) {
	if o.Metric == "" {
		return 0, fmt.Errorf("tsdb: query needs a metric")
	}
	if o.End <= o.Start {
		return 0, fmt.Errorf("tsdb: empty window [%d, %d)", o.Start, o.End)
	}
	if o.Step < 0 {
		return 0, fmt.Errorf("tsdb: negative step %d", o.Step)
	}
	if o.Step == 0 {
		return 0, nil
	}
	n := (o.End - o.Start + o.Step - 1) / o.Step
	if n > maxQueryBuckets {
		return 0, fmt.Errorf("tsdb: %d buckets exceeds %d (widen the step)", n, maxQueryBuckets)
	}
	return n, nil
}

// SeriesResult is one series' slice of a query answer.
type SeriesResult struct {
	Key    SeriesKey
	Points []Point
}

// Query evaluates opts over one job. Raw queries (Step == 0) return
// time-sorted samples inside the window; stepped queries return one point
// per non-empty bucket, stamped with the bucket start. Results are sorted
// by (rank, node, tid). Only the series of opts.Metric are visited (each
// shard indexes its series by metric), only the owning shard is locked when
// both node and rank are given, only chunks overlapping the window are
// read, and those are decoded and folded sample by sample.
func (st *Store) Query(job string, opts QueryOpts) ([]SeriesResult, error) {
	nBuckets, err := opts.validate()
	if err != nil {
		return nil, err
	}
	db := st.lookupJob(job)
	if db == nil {
		return nil, nil
	}
	ev := evaluator{opts: opts, buckets: make([]bucketAcc, nBuckets)}
	var out []SeriesResult
	if opts.Node != "" && opts.Rank >= 0 {
		return ev.evalShard(db.shardForOrigin(opts.Node, opts.Rank), out), nil
	}
	var ends [nSeriesShards]int
	for i := range db.shards {
		out = ev.evalShard(&db.shards[i], out)
		ends[i] = len(out)
	}
	return mergeByKey(out, ends[:]), nil
}

// mergeByKey lays out, in key order, results that arrive as one key-ordered
// run per shard (each shard's index is kept in key order), ends[r] closing
// run r. The heads of two runs almost always differ in rank, which is the
// first thing keyLess compares.
func mergeByKey(out []SeriesResult, ends []int) []SeriesResult {
	merged := make([]SeriesResult, 0, len(out))
	var next [nSeriesShards]int
	for r := 1; r < len(ends); r++ {
		next[r] = ends[r-1]
	}
	for len(merged) < len(out) {
		best := -1
		for r, end := range ends {
			if next[r] < end && (best < 0 || keyLess(out[next[r]].Key, out[next[best]].Key)) {
				best = r
			}
		}
		merged = append(merged, out[next[best]])
		next[best]++
	}
	return merged
}

func keyLess(a, b SeriesKey) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.TID != b.TID {
		return a.TID < b.TID
	}
	return a.Metric < b.Metric
}

// bucketAcc accumulates one step bucket.
type bucketAcc struct {
	count  uint64
	min    float64
	max    float64
	sum    float64
	first  float64
	last   float64
	firstT int64
	lastT  int64
}

func (b *bucketAcc) addSample(t int64, v float64) {
	if b.count == 0 {
		b.min, b.max, b.first, b.last = v, v, v, v
		b.firstT, b.lastT = t, t
	} else {
		if v < b.min {
			b.min = v
		}
		if v > b.max {
			b.max = v
		}
		if t < b.firstT {
			b.firstT, b.first = t, v
		}
		if t >= b.lastT {
			b.lastT, b.last = t, v
		}
	}
	b.count++
	b.sum += v
}

func (b *bucketAcc) value(agg AggKind) float64 {
	switch agg {
	case AggMin:
		return b.min
	case AggMax:
		return b.max
	case AggSum:
		return b.sum
	case AggCount:
		return float64(b.count)
	case AggLast:
		return b.last
	case AggDelta:
		return b.last - b.first
	default:
		return b.sum / float64(b.count)
	}
}

// evaluator is one query's resolved options plus the scratch it reuses
// across every series it visits.
type evaluator struct {
	opts    QueryOpts
	buckets []bucketAcc // one per step bucket; zero but for those in touched
	touched []int       // the buckets the current series filled
	raw     []Point     // a raw query's points for the current series
}

// evalShard appends the shard's matching series to out. It holds the
// shard's lock — the one ingest appends under — for as long as the series
// of the queried metric take to evaluate, and no longer.
func (ev *evaluator) evalShard(sh *seriesShard, out []SeriesResult) []SeriesResult {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, s := range sh.byMetric[ev.opts.Metric] {
		if !ev.opts.matches(s.Key) {
			continue
		}
		if pts := ev.evalSeries(s); len(pts) > 0 {
			out = append(out, SeriesResult{Key: s.Key, Points: pts})
		}
	}
	return out
}

// evalSeries answers the query for one series: the sealed chunks the window
// overlaps, then the head. The caller holds the shard lock, so the head and
// the sealed list are stable and the read cursor is the caller's to move.
//
//zerosum:hotpath
func (ev *evaluator) evalSeries(s *Series) []Point {
	start, end := ev.opts.Start, ev.opts.End
	for _, c := range s.sealed {
		if c.overlaps(start, end) {
			var it gIter
			it.init(c.data, c.count)
			ev.fold(&it, nil)
		}
	}
	if h := s.head.view(); h.overlaps(start, end) {
		// Start where an earlier query left the cursor if every sample it
		// passed is before this window, and leave the cursor before the
		// first sample at or after this window's start if that is further.
		var it gIter
		it.init(h.data, h.count)
		mark := readCursor{before: minInt64}
		if rc := s.rc; rc != nil && rc.before <= start {
			mark = *rc
			it.r.pos, it.st, it.i = rc.pos, rc.st, rc.i
		}
		ev.fold(&it, &mark)
		if mark.i > 0 && (s.rc == nil || mark.i > s.rc.i) {
			if s.rc == nil {
				s.rc = new(readCursor)
			}
			*s.rc = mark
		}
	}
	return ev.points()
}

// fold adds the iterator's samples inside the window to the current
// series' answer. With a mark, it also records in it the decoder's state
// after each sample up to the first at or after the window's start.
//
//zerosum:hotpath
func (ev *evaluator) fold(it *gIter, mark *readCursor) {
	start, end, step := ev.opts.Start, ev.opts.End, ev.opts.Step
	for it.Next() {
		t, v := it.At()
		if t < start {
			if mark != nil {
				*mark = readCursor{pos: it.r.pos, st: it.st, i: it.i, before: max(mark.before, t+1)}
			}
			continue
		}
		mark = nil
		switch {
		case t >= end:
		case step == 0:
			ev.raw = append(ev.raw, Point{T: t, V: v})
		default:
			i := int((t - start) / step)
			if ev.buckets[i].count == 0 {
				ev.touched = append(ev.touched, i)
			}
			ev.buckets[i].addSample(t, v)
		}
	}
}

// points takes the current series' answer out of the scratch, which it
// leaves zeroed for the next series at a cost of the buckets touched.
func (ev *evaluator) points() []Point {
	if ev.opts.Step == 0 {
		pts := ev.raw
		ev.raw = nil
		if !slices.IsSortedFunc(pts, cmpPointT) {
			slices.SortStableFunc(pts, cmpPointT)
		}
		return pts
	}
	if len(ev.touched) == 0 {
		return nil
	}
	slices.Sort(ev.touched) // a straggler fills an earlier bucket late
	pts := make([]Point, len(ev.touched))
	for k, i := range ev.touched {
		pts[k] = Point{T: ev.opts.Start + int64(i)*ev.opts.Step, V: ev.buckets[i].value(ev.opts.Agg)}
		ev.buckets[i] = bucketAcc{}
	}
	ev.touched = ev.touched[:0]
	return pts
}

func cmpPointT(a, b Point) int { return cmp.Compare(a.T, b.T) }

// HeatmapResult is a (series × step-bucket) matrix slice of one metric:
// Figure 6/7's utilization-over-time view across an allocation. Values
// holds NaN for buckets with no samples; JSON renderers turn those into
// null.
type HeatmapResult struct {
	Rows    []SeriesKey
	Buckets int64
	Values  [][]float64
}

// Heatmap evaluates a stepped query and arranges it as a dense matrix.
// Step must be > 0.
func (st *Store) Heatmap(job string, opts QueryOpts) (*HeatmapResult, error) {
	if opts.Step <= 0 {
		return nil, fmt.Errorf("tsdb: heatmap needs a positive step")
	}
	nBuckets := (opts.End - opts.Start + opts.Step - 1) / opts.Step
	series, err := st.Query(job, opts)
	if err != nil {
		return nil, err
	}
	if cells := int64(len(series)) * nBuckets; cells > maxQueryBuckets {
		return nil, fmt.Errorf("tsdb: heatmap of %d rows × %d buckets exceeds %d cells (widen the step or narrow the selector)",
			len(series), nBuckets, maxQueryBuckets)
	}
	hm := &HeatmapResult{Buckets: nBuckets}
	for _, sr := range series {
		row := make([]float64, nBuckets)
		for i := range row {
			row[i] = math.NaN()
		}
		for _, p := range sr.Points {
			row[(p.T-opts.Start)/opts.Step] = p.V
		}
		hm.Rows = append(hm.Rows, sr.Key)
		hm.Values = append(hm.Values, row)
	}
	return hm, nil
}

// TopEntry is one series' standing in a top-k answer.
type TopEntry struct {
	Key   SeriesKey
	Value float64
}

// TopK ranks the matching series by one aggregate over the whole window
// (e.g. most-stalled LWPs: metric lwp.stalled, AggSum; hottest context
// switchers: metric lwp.nvctx, AggDelta) and returns the k highest.
func (st *Store) TopK(job string, opts QueryOpts, k int) ([]TopEntry, error) {
	if k <= 0 {
		return nil, fmt.Errorf("tsdb: top-k needs k > 0")
	}
	// One bucket spanning the window reduces each series to a scalar.
	opts.Step = opts.End - opts.Start
	series, err := st.Query(job, opts)
	if err != nil {
		return nil, err
	}
	entries := make([]TopEntry, 0, len(series))
	for _, sr := range series {
		if len(sr.Points) > 0 {
			entries = append(entries, TopEntry{Key: sr.Key, Value: sr.Points[0].V})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Value != entries[j].Value {
			return entries[i].Value > entries[j].Value
		}
		return keyLess(entries[i].Key, entries[j].Key)
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	return entries, nil
}
