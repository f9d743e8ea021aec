package zerosum

// Benchmarks for the embedded time-series store (internal/tsdb): the
// append hot path, block compression, full-blob scan decode, and the
// rollup-served range query. docs/tsdb.md discusses the bytes-per-sample
// budget the Compress benchmark reports.

import (
	"math"
	"testing"
	"time"

	"zerosum/internal/tsdb"
)

// benchStoreTick is the sample clock step the TSDB benchmarks use: 10ms,
// i.e. 100Hz — an order denser than the monitor's usual 1s cadence, so the
// numbers bound the store under a hostile ingest rate.
const benchStoreTick = int64(10 * time.Millisecond)

// benchStore populates a store with eight periodic series of n samples
// each: smooth utilization-shaped floats on an exactly periodic clock, the
// steady-state shape the codec is tuned for.
func benchStore(n int) *tsdb.Store {
	st := tsdb.NewStore(tsdb.Options{})
	keys := make([]tsdb.SeriesKey, 8)
	for r := range keys {
		keys[r] = tsdb.SeriesKey{Node: "n0", Rank: r, TID: 1000 + r, Metric: "lwp.user_pct"}
	}
	for i := 0; i < n; i++ {
		t := int64(i) * benchStoreTick
		v := 50 + 10*math.Sin(float64(i)/30)
		for _, key := range keys {
			st.Append("bench", key, t, v)
		}
	}
	return st
}

// BenchmarkTSDBAppend measures the per-sample cost of the store's append
// hot path — the price every admitted ingest event pays — and reports the
// steady-state compressed footprint.
func BenchmarkTSDBAppend(b *testing.B) {
	st := tsdb.NewStore(tsdb.Options{})
	key := tsdb.SeriesKey{Node: "n0", Rank: 0, TID: 1000, Metric: "lwp.user_pct"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Append("bench", key, int64(i)*benchStoreTick, 50+10*math.Sin(float64(i)/30))
	}
	b.StopTimer()
	js := st.JobStats("bench")
	if js.Samples != uint64(b.N) {
		b.Fatalf("store holds %d samples, appended %d", js.Samples, b.N)
	}
	b.ReportMetric(float64(js.Bytes)/float64(js.Samples), "bytes/sample")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "samples/s")
	}
}

// BenchmarkTSDBCompress measures encoding a job's full block set to the
// ZSTB wire blob (the dump endpoint and any spill-to-disk path) and
// reports the end-to-end compression ratio achieved.
func BenchmarkTSDBCompress(b *testing.B) {
	const samplesPerSeries = 10_000
	st := benchStore(samplesPerSeries)
	total := float64(st.JobStats("bench").Samples)
	var blob []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		blob, err = st.MarshalJob("bench")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(blob))/total, "bytes/sample")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*total/secs, "samples/s")
	}
}

// BenchmarkTSDBScan measures the full read path over a compressed blob:
// decode the block set and iterate every sample of every chunk.
func BenchmarkTSDBScan(b *testing.B) {
	const samplesPerSeries = 10_000
	st := benchStore(samplesPerSeries)
	blob, err := st.MarshalJob("bench")
	if err != nil {
		b.Fatal(err)
	}
	want := st.JobStats("bench").Samples
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs, err := tsdb.UnmarshalBlocks(blob)
		if err != nil {
			b.Fatal(err)
		}
		var n uint64
		for _, sr := range bs.Series {
			for _, ch := range sr.Chunks {
				pts, err := ch.Samples()
				if err != nil {
					b.Fatal(err)
				}
				n += uint64(len(pts))
			}
		}
		if n != want {
			b.Fatalf("scanned %d samples, want %d", n, want)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*float64(want)/secs, "samples/s")
	}
}

// BenchmarkTSDBQuery measures a stepped range query over the populated
// store. The 5s step is an exact multiple of the default 5s downsample, so
// sealed chunks serve from rollups; the head chunks decode.
func BenchmarkTSDBQuery(b *testing.B) {
	const samplesPerSeries = 10_000
	st := benchStore(samplesPerSeries)
	opts := tsdb.QueryOpts{
		Metric: "lwp.user_pct",
		Rank:   -1,
		TID:    -1,
		End:    int64(samplesPerSeries) * benchStoreTick,
		Step:   int64(5 * time.Second),
		Agg:    tsdb.AggMean,
	}
	var points int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := st.Query("bench", opts)
		if err != nil {
			b.Fatal(err)
		}
		points = 0
		for _, sr := range series {
			points += len(sr.Points)
		}
		if points == 0 {
			b.Fatal("query returned no points")
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*float64(points)/secs, "points/s")
	}
}
