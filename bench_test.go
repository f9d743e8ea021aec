package zerosum

// The benchmark harness regenerates every table and figure from the
// paper's evaluation (§4) as a testing.B benchmark, reporting the headline
// shape numbers as custom metrics alongside the usual ns/op:
//
//	go test -bench=. -benchmem
//
// Benchmarks run the experiments at a reduced scale so the full suite
// completes in seconds; `go run ./cmd/experiments` runs them at paper
// scale and prints the complete paper-vs-measured comparison.

import (
	"io"
	"strings"
	"testing"

	"zerosum/internal/experiments"
	"zerosum/internal/report"
)

const benchScale = 0.1

// BenchmarkListing1Topology regenerates the Listing 1 hwloc output.
func BenchmarkListing1Topology(b *testing.B) {
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(experiments.Listing1())
	}
	b.ReportMetric(float64(n), "bytes")
}

// BenchmarkListing2Report regenerates the full GPU-offload report.
func BenchmarkListing2Report(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := experiments.Listing2(0.02, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		if err := report.Write(&sb, tr.Snapshot, report.Options{Memory: true}); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(tr.WallSeconds, "sim_s")
		}
	}
}

// BenchmarkTable1Default regenerates Table 1 (the misconfigured default
// launch) and reports the per-thread nvctx magnitude.
func BenchmarkTable1Default(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := experiments.Table1(benchScale, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var maxNV uint64
			for _, l := range tr.Snapshot.LWPs {
				if l.NVCtx > maxNV {
					maxNV = l.NVCtx
				}
			}
			b.ReportMetric(tr.WallSeconds, "sim_s")
			b.ReportMetric(float64(maxNV), "max_nvctx")
		}
	}
}

// BenchmarkTable2Cores7 regenerates Table 2 (-c7, unbound threads).
func BenchmarkTable2Cores7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := experiments.Table2(benchScale, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(tr.WallSeconds, "sim_s")
		}
	}
}

// BenchmarkTable3Spread regenerates Table 3 (-c7 + spread/cores binding)
// and reports the T1/T3 speedup factor, the paper's headline comparison.
func BenchmarkTable3Spread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3, err := experiments.Table3(benchScale, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t1, err := experiments.Table1(benchScale, uint64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(t1.WallSeconds/t3.WallSeconds, "T1/T3_ratio")
			b.ReportMetric(t3.WallSeconds, "sim_s")
		}
	}
}

// BenchmarkFigure5Heatmap regenerates the 512-rank communication heatmap
// and reports the nearest-neighbour band fraction.
func BenchmarkFigure5Heatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hm, _, err := experiments.Figure5(512, 0.2, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if err := hm.WritePGM(io.Discard); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(hm.BandFraction(1), "nn_band_frac")
		}
	}
}

// BenchmarkFigure6LWPSeries regenerates the per-thread utilization series.
func BenchmarkFigure6LWPSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sr, err := experiments.Figures6And7(benchScale, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if err := sr.LWP.WriteTSV(io.Discard); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(sr.LWPNoisiness, "noisiness")
		}
	}
}

// BenchmarkFigure7HWTSeries regenerates the per-core utilization series.
func BenchmarkFigure7HWTSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sr, err := experiments.Figures6And7(benchScale, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if err := sr.HWT.WriteTSV(io.Discard); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(sr.HWTNoisiness, "noisiness")
		}
	}
}

// BenchmarkFigure8Overhead runs the reduced overhead experiment (3 runs per
// side per scenario) and reports both scenarios' overhead fractions.
func BenchmarkFigure8Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scens, err := experiments.Figure8(3, 0.2, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(scens[0].OverheadFrac*100, "overhead_1t_pct")
			b.ReportMetric(scens[1].OverheadFrac*100, "overhead_2t_pct")
		}
	}
}

// BenchmarkMonitorTick measures one sampling pass of the monitor itself
// against the live /proc of this host — the per-tick cost underlying the
// paper's <0.5% overhead claim.
func BenchmarkMonitorTick(b *testing.B) {
	mon, err := MonitorSelf(MonitorConfig{})
	if err != nil {
		b.Skip("no live /proc:", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mon.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveTick measures the sampling pass with per-LWP adaptive
// sampling enabled, against the live /proc of this host. Most of this
// process's threads are parked in the Go runtime, so after the EWMA
// settles the majority of per-tick scans are skipped; the delta versus
// BenchmarkMonitorTick is the tentpole saving, and skips/tick reports how
// much of the thread set went quiescent.
func BenchmarkAdaptiveTick(b *testing.B) {
	mon, err := MonitorSelf(MonitorConfig{
		Adaptive: AdaptiveConfig{Enabled: true},
	})
	if err != nil {
		b.Skip("no live /proc:", err)
	}
	// Settle the EWMA so the measured region reflects steady state.
	for i := 0; i < 4; i++ {
		if err := mon.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	skips0 := mon.AdaptiveSkips()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mon.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mon.AdaptiveSkips()-skips0)/float64(b.N), "skips/tick")
}

// BenchmarkAblations runs the design-choice ablation suite at reduced
// scale, reporting the bandwidth-model ratio gap it exists to justify.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		abl, err := experiments.Ablations(2, 0.1, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, a := range abl {
				if a.Name == "bandwidth-cap" {
					b.ReportMetric(a.With, "T1/T3_with_cap")
					b.ReportMetric(a.Without, "T1/T3_without_cap")
				}
			}
		}
	}
}
