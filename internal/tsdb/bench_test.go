package tsdb

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// benchOptions is the pipeline benchmark's store geometry at 1 Hz: blocks
// of 60 ticks, rollup buckets of 5, retention of 120.
var benchOptions = Options{Block: time.Minute, Downsample: 5 * time.Second, Retention: 2 * time.Minute}

// BenchmarkQueryDashboard times the dashboard's three wide views over a
// synthetic 64-rank job at 1 Hz: 128 CPUs per rank (hwt.user_pct, three in
// four idle) and 16 threads (lwp.user_pct). Each op appends one tick to
// every series, untimed, then asks its query with the window moved one tick
// on, as a polling reader's does.
func BenchmarkQueryDashboard(b *testing.B) {
	const ranks, cpus, threads, fill = 64, 128, 16, 150
	st := NewStore(benchOptions)
	rng := rand.New(rand.NewSource(5))
	type rankSeries struct{ hwt, lwp []*Series }
	handles := make([]rankSeries, ranks)
	tick := int64(0)
	appendTick := func() {
		t := tick * 1e9
		for r := range handles {
			ba := st.BeginBatch("job", "node", r)
			h := &handles[r]
			if h.hwt == nil {
				for c := 0; c < cpus; c++ {
					h.hwt = append(h.hwt, ba.Resolve(SeriesKey{Node: "node", Rank: r, TID: c, Metric: "hwt.user_pct"}))
				}
				for th := 0; th < threads; th++ {
					h.lwp = append(h.lwp, ba.Resolve(SeriesKey{Node: "node", Rank: r, TID: 1000 + th, Metric: "lwp.user_pct"}))
				}
			}
			for c, s := range h.hwt {
				v := 0.0
				if c%4 == 0 {
					v = float64(rng.Intn(1000)) / 10
				}
				ba.Append(s, t, v)
			}
			for _, s := range h.lwp {
				ba.Append(s, t, float64(rng.Intn(1000))/10)
			}
			ba.End()
		}
		tick++
	}
	for tick < fill {
		appendTick()
	}
	window := func(back int64) (start, end int64) {
		newest := (tick - 1) * 1e9
		return newest - back*1e9, newest + 1e9
	}
	shapes := []struct {
		name string
		want int // series (or top-k entries) the answer holds
		run  func() int
	}{
		{"range", ranks * cpus, func() int {
			start, end := window(10)
			res, _ := st.Query("job", QueryOpts{Metric: "hwt.user_pct", Rank: -1, TID: -1,
				Start: start, End: end, Step: 5e9, Agg: AggMean})
			return len(res)
		}},
		{"topk", 10, func() int {
			start, end := window(10)
			top, _ := st.TopK("job", QueryOpts{Metric: "lwp.user_pct", Rank: -1, TID: -1,
				Start: start, End: end, Agg: AggMean}, 10)
			return len(top)
		}},
		{"heatmap", ranks * threads, func() int {
			start, end := window(60)
			hm, _ := st.Heatmap("job", QueryOpts{Metric: "lwp.user_pct", Rank: -1, TID: -1,
				Start: start, End: end, Step: (end - start + 59) / 60, Agg: AggMean})
			return len(hm.Rows)
		}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				appendTick()
				b.StartTimer()
				if got := sh.run(); got != sh.want {
					b.Fatalf("%s answered %d, want %d", sh.name, got, sh.want)
				}
			}
		})
	}
}

// BenchmarkSealHeavyAppend fills a 64-rank job of 900 series per rank at
// 1 Hz for 300 ticks through BatchAppender, with the pipeline benchmark's
// block and retention: every series seals four times, and retention drops
// its oldest block.
// It reports append cost per sample and the heap the store holds after the
// last tick.
func BenchmarkSealHeavyAppend(b *testing.B) {
	const ranks, perRank, ticks = 64, 900, 300
	rng := rand.New(rand.NewSource(8))
	values := make([]float64, 4096)
	for i := range values {
		values[i] = float64(rng.Intn(200)) / 4
	}
	var st *Store
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = NewStore(benchOptions)
		handles := make([][]*Series, ranks)
		for tick := 0; tick < ticks; tick++ {
			t := int64(tick) * 1e9
			for r := range handles {
				ba := st.BeginBatch("job", "node", r)
				if handles[r] == nil {
					for s := 0; s < perRank; s++ {
						handles[r] = append(handles[r], ba.Resolve(SeriesKey{Node: "node", Rank: r, TID: s, Metric: "m"}))
					}
				}
				for s, h := range handles[r] {
					ba.Append(h, t, values[(r*perRank+s+tick*tick)&4095])
				}
				ba.End()
			}
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ranks*perRank*ticks), "ns/sample")
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(1<<20), "MiB-retained")
}
