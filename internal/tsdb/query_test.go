package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// fill loads a deterministic pattern: ranks 0..nRanks-1, one series each,
// one sample per second, value = rank*offset + second.
func fill(st *Store, job, metric string, nRanks, seconds int, offset float64) {
	for r := 0; r < nRanks; r++ {
		key := SeriesKey{Node: "node0", Rank: r, TID: 1000 + r, Metric: metric}
		for i := 0; i < seconds; i++ {
			st.Append(job, key, int64(i)*1e9, float64(r)*offset+float64(i))
		}
	}
}

func TestQueryValidation(t *testing.T) {
	st := NewStore(Options{})
	for name, opts := range map[string]QueryOpts{
		"no-metric":    {Start: 0, End: 10},
		"empty-window": {Metric: "m", Start: 10, End: 10},
		"neg-step":     {Metric: "m", Start: 0, End: 10, Step: -1},
		"bucket-bomb":  {Metric: "m", Start: 0, End: 1 << 50, Step: 1},
	} {
		if _, err := st.Query("j", opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Unknown jobs answer empty, not an error: the aggregator's handlers
	// 404 on their own terms.
	if res, err := st.Query("ghost", QueryOpts{Metric: "m", Rank: -1, TID: -1, Start: 0, End: 10}); err != nil || res != nil {
		t.Fatalf("ghost job: %v %v", res, err)
	}
}

func TestQueryRawAndFilters(t *testing.T) {
	st := NewStore(Options{Block: time.Minute})
	fill(st, "j", "lwp.user_pct", 4, 30, 1000)
	st.Append("j", SeriesKey{Node: "node1", Rank: 9, TID: 9, Metric: "other"}, 0, 1)

	res, err := st.Query("j", QueryOpts{Metric: "lwp.user_pct", Rank: -1, TID: -1, Start: 0, End: 30e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d series, want 4", len(res))
	}
	for r, sr := range res {
		if sr.Key.Rank != r {
			t.Fatalf("series %d has rank %d (order broken)", r, sr.Key.Rank)
		}
		if len(sr.Points) != 30 {
			t.Fatalf("rank %d: %d raw points, want 30", r, len(sr.Points))
		}
		for i, p := range sr.Points {
			if p.T != int64(i)*1e9 || p.V != float64(r*1000+i) {
				t.Fatalf("rank %d point %d = %+v", r, i, p)
			}
		}
	}

	// Window clipping is half-open.
	res, err = st.Query("j", QueryOpts{Metric: "lwp.user_pct", Rank: 2, TID: -1, Start: 5e9, End: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 5 {
		t.Fatalf("clip: %+v", res)
	}
	if res[0].Points[0].T != 5e9 || res[0].Points[4].T != 9e9 {
		t.Fatalf("clip bounds: %+v", res[0].Points)
	}

	// Rank + TID filters.
	res, err = st.Query("j", QueryOpts{Metric: "lwp.user_pct", Rank: -1, TID: 1003, Start: 0, End: 30e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Key.Rank != 3 {
		t.Fatalf("tid filter: %+v", res)
	}
	res, err = st.Query("j", QueryOpts{Metric: "lwp.user_pct", Node: "node-else", Rank: -1, TID: -1, Start: 0, End: 30e9})
	if err != nil || len(res) != 0 {
		t.Fatalf("node filter: %v %v", res, err)
	}
}

func TestQuerySteppedAggregations(t *testing.T) {
	st := NewStore(Options{Block: time.Minute})
	// One series, values 0..29 at seconds 0..29.
	fill(st, "j", "m", 1, 30, 0)
	q := func(agg AggKind) []Point {
		res, err := st.Query("j", QueryOpts{
			Metric: "m", Rank: -1, TID: -1,
			Start: 0, End: 30e9, Step: 10e9, Agg: agg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || len(res[0].Points) != 3 {
			t.Fatalf("agg %v: %+v", agg, res)
		}
		return res[0].Points
	}
	check := func(agg AggKind, want [3]float64) {
		t.Helper()
		pts := q(agg)
		for i := range want {
			if pts[i].T != int64(i)*10e9 || pts[i].V != want[i] {
				t.Fatalf("agg %v bucket %d = %+v, want V=%v", agg, i, pts[i], want[i])
			}
		}
	}
	check(AggMean, [3]float64{4.5, 14.5, 24.5})
	check(AggMin, [3]float64{0, 10, 20})
	check(AggMax, [3]float64{9, 19, 29})
	check(AggSum, [3]float64{45, 145, 245})
	check(AggCount, [3]float64{10, 10, 10})
	check(AggLast, [3]float64{9, 19, 29})
	check(AggDelta, [3]float64{9, 9, 9})
}

// TestQueryRollupMatchesRaw pins a stepped query over sealed chunks, with
// steps that nest in the block grid, to a manual recompute from the raw
// samples, for every aggregation.
func TestQueryRollupMatchesRaw(t *testing.T) {
	// Block 10s: sealing happens often, and step 10s aligns.
	st := NewStore(Options{Block: 10 * time.Second})
	fill(st, "j", "m", 3, 95, 100) // 9 sealed blocks + live head per series
	js := st.JobStats("j")
	if js.SealedChunks < 9*3 {
		t.Fatalf("want sealed chunks under the query, got %d", js.SealedChunks)
	}
	for _, agg := range []AggKind{AggMean, AggMin, AggMax, AggSum, AggCount, AggLast, AggDelta} {
		aligned, err := st.Query("j", QueryOpts{
			Metric: "m", Rank: -1, TID: -1,
			Start: 0, End: 95e9, Step: 10e9, Agg: agg,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, sr := range aligned {
			r := sr.Key.Rank
			for _, p := range sr.Points {
				lo := int(p.T / 1e9)
				hi := lo + 10
				if hi > 95 {
					hi = 95
				}
				var acc bucketAcc
				for i := lo; i < hi; i++ {
					acc.addSample(int64(i)*1e9, float64(r*100+i))
				}
				want := acc.value(agg)
				if p.V != want && !(math.IsNaN(p.V) && math.IsNaN(want)) {
					t.Fatalf("agg %v rank %d bucket %d: query %v, manual %v", agg, r, p.T, p.V, want)
				}
			}
		}
	}
}

func TestQueryMisalignedStepDecodes(t *testing.T) {
	st := NewStore(Options{Block: 10 * time.Second})
	fill(st, "j", "m", 1, 40, 0)
	// Step 7s does not divide the 10s block: buckets straddle chunk
	// boundaries and must still be exact.
	res, err := st.Query("j", QueryOpts{
		Metric: "m", Rank: -1, TID: -1, Start: 0, End: 40e9, Step: 7e9, Agg: AggSum,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := res[0].Points
	if len(pts) != 6 {
		t.Fatalf("%d buckets, want 6", len(pts))
	}
	for i, p := range pts {
		lo := i * 7
		hi := lo + 7
		if hi > 40 {
			hi = 40
		}
		want := 0.0
		for v := lo; v < hi; v++ {
			want += float64(v)
		}
		if p.V != want {
			t.Fatalf("bucket %d: %v, want %v", i, p.V, want)
		}
	}
}

func TestQueryEmptyBucketsOmitted(t *testing.T) {
	st := NewStore(Options{Block: time.Minute})
	key := SeriesKey{Node: "n", Rank: 0, TID: 0, Metric: "m"}
	st.Append("j", key, 1e9, 1)
	st.Append("j", key, 50e9, 2)
	res, err := st.Query("j", QueryOpts{
		Metric: "m", Rank: -1, TID: -1, Start: 0, End: 60e9, Step: 10e9, Agg: AggMean,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := res[0].Points
	if len(pts) != 2 || pts[0].T != 0 || pts[1].T != 50e9 {
		t.Fatalf("sparse buckets: %+v", pts)
	}
}

func TestQueryOutOfOrderSamples(t *testing.T) {
	st := NewStore(Options{Block: time.Minute})
	key := SeriesKey{Node: "n", Rank: 0, TID: 0, Metric: "m"}
	// A straggler lands after newer samples (late retry of a gap batch).
	for _, sec := range []int64{10, 11, 12, 5, 13} {
		st.Append("j", key, sec*1e9, float64(sec))
	}
	res, err := st.Query("j", QueryOpts{Metric: "m", Rank: -1, TID: -1, Start: 0, End: 60e9})
	if err != nil {
		t.Fatal(err)
	}
	pts := res[0].Points
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T {
			t.Fatalf("raw result not sorted: %+v", pts)
		}
	}
	// AggLast keys on timestamp, not append order.
	res, err = st.Query("j", QueryOpts{
		Metric: "m", Rank: -1, TID: -1, Start: 0, End: 60e9, Step: 60e9, Agg: AggLast,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Points[0].V; got != 13 {
		t.Fatalf("AggLast = %v, want 13", got)
	}
}

func TestHeatmap(t *testing.T) {
	st := NewStore(Options{Block: time.Minute})
	fill(st, "j", "hwt.idle_pct", 3, 30, 10)
	hm, err := st.Heatmap("j", QueryOpts{
		Metric: "hwt.idle_pct", Rank: -1, TID: -1,
		Start: 0, End: 30e9, Step: 10e9, Agg: AggMean,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hm.Rows) != 3 || hm.Buckets != 3 {
		t.Fatalf("heatmap %dx%d", len(hm.Rows), hm.Buckets)
	}
	for r, row := range hm.Values {
		for b, v := range row {
			want := float64(r*10) + float64(b*10) + 4.5
			if v != want {
				t.Fatalf("cell [%d][%d] = %v, want %v", r, b, v, want)
			}
		}
	}
	// Gaps become NaN cells.
	st.Append("j", SeriesKey{Node: "n2", Rank: 7, TID: 7, Metric: "sparse"}, 25e9, 1)
	hm, err = st.Heatmap("j", QueryOpts{
		Metric: "sparse", Rank: -1, TID: -1, Start: 0, End: 30e9, Step: 10e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := hm.Values[0]
	if !math.IsNaN(row[0]) || !math.IsNaN(row[1]) || row[2] != 1 {
		t.Fatalf("sparse row = %v", row)
	}
	if _, err := st.Heatmap("j", QueryOpts{Metric: "m", Start: 0, End: 1}); err == nil {
		t.Fatal("heatmap without step accepted")
	}
}

func TestTopK(t *testing.T) {
	st := NewStore(Options{Block: time.Minute})
	// Rank r's counter ends at r*100: delta over the window ranks 3,2,1,0.
	for r := 0; r < 4; r++ {
		key := SeriesKey{Node: "n", Rank: r, TID: 1000 + r, Metric: "lwp.nvctx"}
		for i := 0; i <= 10; i++ {
			st.Append("j", key, int64(i)*1e9, float64(r*10*i))
		}
	}
	top, err := st.TopK("j", QueryOpts{
		Metric: "lwp.nvctx", Rank: -1, TID: -1,
		Start: 0, End: 11e9, Agg: AggDelta,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("got %d entries", len(top))
	}
	if top[0].Key.Rank != 3 || top[0].Value != 300 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].Key.Rank != 2 || top[1].Value != 200 {
		t.Fatalf("top[1] = %+v", top[1])
	}
	// k larger than the field returns everything; ties break by key order.
	top, err = st.TopK("j", QueryOpts{
		Metric: "lwp.nvctx", Rank: -1, TID: -1, Start: 0, End: 11e9, Agg: AggCount,
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 {
		t.Fatalf("got %d entries", len(top))
	}
	for i, e := range top {
		if e.Key.Rank != i || e.Value != 11 {
			t.Fatalf("tie order broken: %+v", top)
		}
	}
	if _, err := st.TopK("j", QueryOpts{Metric: "m", Start: 0, End: 1}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestParseAgg(t *testing.T) {
	// The names are part of the HTTP API, so the test spells them out
	// rather than reading them back from the table under test.
	names := map[string]AggKind{
		"mean": AggMean, "min": AggMin, "max": AggMax, "sum": AggSum,
		"count": AggCount, "last": AggLast, "delta": AggDelta,
	}
	if len(names) != len(aggNames) {
		t.Fatalf("aggNames has %d entries, the API documents %d", len(aggNames), len(names))
	}
	for name, want := range names {
		got, err := ParseAgg(name)
		if err != nil || got != want {
			t.Fatalf("ParseAgg(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), name)
		}
	}
	if got, err := ParseAgg(""); err != nil || got != AggMean {
		t.Fatalf("empty agg: %v %v", got, err)
	}
	if _, err := ParseAgg("median"); err == nil {
		t.Fatal("unknown agg accepted")
	}
	for _, k := range []AggKind{-1, AggKind(len(aggNames))} {
		if got := k.String(); got != "mean" {
			t.Fatalf("out-of-range kind %d renders %q, want the default %q", k, got, "mean")
		}
	}
}

// BenchmarkQueryLongWindow times an hour-long stepped query over 576
// series of 1 Hz random-walk samples, every chunk but the heads sealed,
// with 5 s and 1 min steps: the shape a stored per-bucket aggregate would
// serve without decoding. The store holds only bits, so
// each op decodes the hour of every series.
func BenchmarkQueryLongWindow(b *testing.B) {
	const series, seconds = 576, 3600
	st := NewStore(Options{})
	rng := rand.New(rand.NewSource(9))
	for s := 0; s < series; s++ {
		ba := st.BeginBatch("job", "node0", s/8)
		h := ba.Resolve(SeriesKey{Node: "node0", Rank: s / 8, TID: s, Metric: "lwp.user_pct"})
		v := 50.0
		for i := 0; i < seconds; i++ {
			v += rng.NormFloat64()
			ba.Append(h, int64(i)*1e9, v)
		}
		ba.End()
	}
	for _, step := range []time.Duration{5 * time.Second, time.Minute} {
		b.Run(fmt.Sprintf("step=%v", step), func(b *testing.B) {
			opts := QueryOpts{Metric: "lwp.user_pct", Rank: -1, TID: -1,
				Start: 0, End: seconds * 1e9, Step: int64(step), Agg: AggMean}
			for i := 0; i < b.N; i++ {
				res, err := st.Query("job", opts)
				if err != nil || len(res) != series {
					b.Fatalf("%d series, %v", len(res), err)
				}
			}
		})
	}
}
