package aggd

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"zerosum/internal/tsdb"
)

// The reference side of the differential tests: build the documented
// response struct from the store's result — the copy the handlers used to
// make — and let encoding/json render it exactly as writeJSON does.

func encodeIndented(t *testing.T, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func identOf(key tsdb.SeriesKey) SeriesIdent {
	return SeriesIdent{Node: key.Node, Rank: key.Rank, TID: key.TID}
}

func refQuery(job string, opts tsdb.QueryOpts, series []tsdb.SeriesResult) QueryResponse {
	resp := QueryResponse{
		Job: job, Metric: opts.Metric, Agg: opts.Agg.String(),
		StartSec: tsdb.NanosToSec(opts.Start),
		EndSec:   tsdb.NanosToSec(opts.End),
		StepSec:  tsdb.NanosToSec(opts.Step),
		Series:   make([]QuerySeries, 0, len(series)),
	}
	for _, sr := range series {
		qs := QuerySeries{SeriesIdent: identOf(sr.Key), Points: make([]QueryPoint, len(sr.Points))}
		for i, p := range sr.Points {
			qs.Points[i] = QueryPoint{TimeSec: p.Sec(), Value: p.V}
		}
		resp.Series = append(resp.Series, qs)
	}
	return resp
}

func refHeatmap(job string, opts tsdb.QueryOpts, hm *tsdb.HeatmapResult) TSDBHeatmapResponse {
	resp := TSDBHeatmapResponse{
		Job: job, Metric: opts.Metric, Agg: opts.Agg.String(),
		StartSec: tsdb.NanosToSec(opts.Start),
		EndSec:   tsdb.NanosToSec(opts.End),
		StepSec:  tsdb.NanosToSec(opts.Step),
		Rows:     make([]SeriesIdent, len(hm.Rows)),
		Values:   make([][]*float64, len(hm.Rows)),
	}
	for i, key := range hm.Rows {
		resp.Rows[i] = identOf(key)
		row := make([]*float64, len(hm.Values[i]))
		for j := range hm.Values[i] {
			if v := hm.Values[i][j]; !math.IsNaN(v) {
				row[j] = &hm.Values[i][j]
			}
		}
		resp.Values[i] = row
	}
	return resp
}

func refTopK(job string, opts tsdb.QueryOpts, k int, top []tsdb.TopEntry) TopKResponse {
	resp := TopKResponse{
		Job: job, Metric: opts.Metric, Agg: opts.Agg.String(), K: k,
		StartSec: tsdb.NanosToSec(opts.Start),
		EndSec:   tsdb.NanosToSec(opts.End),
		Entries:  make([]TopKEntry, len(top)),
	}
	for i, e := range top {
		resp.Entries[i] = TopKEntry{SeriesIdent: identOf(e.Key), Value: e.Value}
	}
	return resp
}

// awkwardFloats sit on and around everything encoding/json's float
// formatting branches on: the 'f'/'e' switch at 1e-6 and 1e21, the
// exponent clean-up (e-07 → e-7, but e-10 and e+21 untouched), negative
// zero, integers, subnormals and the ends of the range.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, 10, 100, 123456789, 1 << 53, -(1 << 53),
	0.5, 1.5, 0.1, 0.1 + 0.2, 1.0 / 3, 99.99999999999999,
	1e-6, 0.99e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-7, 1e-9, 1.25e-9, 1e-10, 1e-100,
	1e20, 9.99e20, 999999999999999900000, 1e21, -1e21, 1.5e21, 1e22, 1e100,
	5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.MaxInt64, math.MinInt64, 1e9, 27e9, 0.05, 0.25,
}

// awkwardNames need every kind of escape encoding/json knows.
var awkwardNames = []string{
	"", "node0", "frontier00042", "a b", "~{}[]",
	"<script>&amp;</script>", "a<b", "a>b", "a&b",
	`say "hi"`, `back\slash`, "tab\there", "line\nbreak", "cr\rlf", "\b\f", "\x00\x01\x1f", "del\x7f",
	"line\u2028sep", "para\u2029sep", "ünïcödé", "日本語", "emoji😀",
	"\xff", "bad\xc3", "\xed\xa0\x80surrogate", "ok\xf0\x9f\x98", "\xc0\xafoverlong",
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return awkwardFloats[rng.Intn(len(awkwardFloats))]
	case 1:
		return float64(rng.Intn(2000) - 1000)
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func randomKey(rng *rand.Rand) tsdb.SeriesKey {
	return tsdb.SeriesKey{
		Node: awkwardNames[rng.Intn(len(awkwardNames))],
		Rank: rng.Intn(200000) - 1000,
		TID:  rng.Intn(1 << 22),
	}
}

func randomOpts(rng *rand.Rand) tsdb.QueryOpts {
	return tsdb.QueryOpts{
		Metric: awkwardNames[rng.Intn(len(awkwardNames))],
		Agg:    tsdb.AggKind(rng.Intn(8)),
		Start:  rng.Int63n(1e12) - 1e9,
		End:    rng.Int63n(1e15),
		Step:   rng.Int63n(1e11),
	}
}

// mustMatch compares one rendering with its reference, byte for byte, or
// error for error.
func mustMatch(t *testing.T, what string, got []byte, gotErr error, ref any) {
	t.Helper()
	want, wantErr := encodeIndented(t, ref)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: renderer error %v, encoding/json error %v", what, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-60)
		t.Fatalf("%s: differs from encoding/json at byte %d\n renderer: %q\n json:     %q",
			what, i, got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
	}
}

func TestRenderQueryMatchesEncodingJSON(t *testing.T) {
	check := func(what, job string, opts tsdb.QueryOpts, series []tsdb.SeriesResult) {
		t.Helper()
		got, err := renderQuery(job, opts, series)
		mustMatch(t, what, got, err, refQuery(job, opts, series))
	}
	opts := tsdb.QueryOpts{Metric: "hwt.user_pct", Start: 0, End: 27e9, Step: 5e9}
	check("no series", "job", opts, nil)
	check("empty series list", "job", opts, []tsdb.SeriesResult{})
	check("series without points", "job", opts, []tsdb.SeriesResult{{Key: tsdb.SeriesKey{Node: "n"}}})

	// Every awkward float as a value, and as a time where it is one.
	var pts []tsdb.Point
	for i, f := range awkwardFloats {
		pts = append(pts, tsdb.Point{T: int64(i) * 1e8, V: f})
	}
	for _, ts := range []int64{0, 1, -1, 999, 1e3, 1e9, 27e9 + 1, 5e14, 1e15, math.MaxInt64, math.MinInt64} {
		pts = append(pts, tsdb.Point{T: ts, V: 1})
	}
	check("awkward floats", "job", opts, []tsdb.SeriesResult{{Key: tsdb.SeriesKey{Node: "n", Rank: 3, TID: 7}, Points: pts}})

	// Every awkward name in every string position.
	for _, name := range awkwardNames {
		o := opts
		o.Metric = name
		check("name "+name, name, o, []tsdb.SeriesResult{{
			Key: tsdb.SeriesKey{Node: name, Rank: -1, TID: 1 << 30}, Points: []tsdb.Point{{T: 1e9, V: 2}}}})
	}

	// Values JSON cannot carry fail both sides.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		check("unsupported value", "job", opts, []tsdb.SeriesResult{{
			Key: tsdb.SeriesKey{Node: "n"}, Points: []tsdb.Point{{T: 0, V: 1}, {T: 1, V: bad}}}})
	}

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		series := make([]tsdb.SeriesResult, rng.Intn(5))
		for i := range series {
			series[i].Key = randomKey(rng)
			series[i].Points = make([]tsdb.Point, rng.Intn(6))
			for j := range series[i].Points {
				series[i].Points[j] = tsdb.Point{T: rng.Int63n(1e13) - 1e6, V: randomFloat(rng)}
			}
		}
		check("random", awkwardNames[rng.Intn(len(awkwardNames))], randomOpts(rng), series)
	}
}

func TestRenderHeatmapMatchesEncodingJSON(t *testing.T) {
	check := func(what, job string, opts tsdb.QueryOpts, hm *tsdb.HeatmapResult) {
		t.Helper()
		got, err := renderHeatmap(job, opts, hm)
		mustMatch(t, what, got, err, refHeatmap(job, opts, hm))
	}
	opts := tsdb.QueryOpts{Metric: "lwp.user_pct", Agg: tsdb.AggMax, Start: 0, End: 60e9, Step: 1e9}
	check("no rows", "job", opts, &tsdb.HeatmapResult{Buckets: 60})

	nan := math.NaN()
	check("gaps", "job", opts, &tsdb.HeatmapResult{Buckets: 4,
		Rows:   []tsdb.SeriesKey{{Node: "a<b", Rank: 0, TID: 100}, {Node: "n", Rank: 1, TID: 101}, {Node: "n", Rank: 2}},
		Values: [][]float64{{nan, 1, nan, 1e-7}, {nan, nan, nan, nan}, append([]float64(nil), awkwardFloats[:4]...)}})
	check("infinite cell", "job", opts, &tsdb.HeatmapResult{Buckets: 2,
		Rows: []tsdb.SeriesKey{{Node: "n"}}, Values: [][]float64{{1, math.Inf(1)}}})

	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 200; round++ {
		hm := &tsdb.HeatmapResult{Buckets: int64(1 + rng.Intn(6))}
		for r := rng.Intn(5); r > 0; r-- {
			row := make([]float64, hm.Buckets)
			for i := range row {
				if row[i] = randomFloat(rng); rng.Intn(3) == 0 {
					row[i] = nan
				}
			}
			hm.Rows = append(hm.Rows, randomKey(rng))
			hm.Values = append(hm.Values, row)
		}
		check("random", awkwardNames[rng.Intn(len(awkwardNames))], randomOpts(rng), hm)
	}
}

func TestRenderTopKMatchesEncodingJSON(t *testing.T) {
	check := func(what, job string, opts tsdb.QueryOpts, k int, top []tsdb.TopEntry) {
		t.Helper()
		got, err := renderTopK(job, opts, k, top)
		mustMatch(t, what, got, err, refTopK(job, opts, k, top))
	}
	opts := tsdb.QueryOpts{Metric: "lwp.stalled", Agg: tsdb.AggSum, Start: 17e9, End: 28e9}
	check("no entries", "job", opts, 10, nil)
	var top []tsdb.TopEntry
	for i, f := range awkwardFloats {
		top = append(top, tsdb.TopEntry{Key: tsdb.SeriesKey{Node: awkwardNames[i%len(awkwardNames)], Rank: i, TID: 1000 + i}, Value: f})
	}
	check("awkward values", "job", opts, len(top), top)
	check("unsupported value", "job", opts, 1, []tsdb.TopEntry{{Key: tsdb.SeriesKey{Node: "n"}, Value: math.NaN()}})

	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		top := make([]tsdb.TopEntry, rng.Intn(6))
		for i := range top {
			top[i] = tsdb.TopEntry{Key: randomKey(rng), Value: randomFloat(rng)}
		}
		check("random", awkwardNames[rng.Intn(len(awkwardNames))], randomOpts(rng), 1+rng.Intn(1000), top)
	}
}
