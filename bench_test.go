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
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/experiments"
	"zerosum/internal/export"
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
	mon, err := MonitorSelf(MonitorConfig{KeepSeries: false})
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
		KeepSeries: false,
		Adaptive:   AdaptiveConfig{Enabled: true},
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

// BenchmarkStreamPublish measures the monitor-side cost of publishing one
// sample event, extending the paper's overhead claim (§4.1) to the network
// export path: attaching an aggd node agent must keep Publish on an O(ns)
// enqueue — no allocation, no I/O — so that streaming to an aggregator
// costs no more than ~2x a detached stream.
func BenchmarkStreamPublish(b *testing.B) {
	ev := export.Event{
		Kind:    export.EventLWP,
		TimeSec: 1.0,
		LWP:     &export.LWPSample{TID: 42, Kind: "Main", State: 'R', UserPct: 90, CPU: 3},
	}
	b.Run("Detached", func(b *testing.B) {
		var s export.Stream
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Publish(ev)
		}
	})
	b.Run("NoopSubscriber", func(b *testing.B) {
		var s export.Stream
		s.Subscribe(func(export.Event) {})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Publish(ev)
		}
	})
	b.Run("AgentAttached", func(b *testing.B) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
		}))
		defer ts.Close()
		agent, err := aggd.NewAgent(aggd.AgentConfig{
			URL: ts.URL, Job: "bench", Node: "n0", Rank: 0,
			RingCap: 1 << 14, FlushInterval: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer agent.Close()
		var s export.Stream
		agent.Attach(&s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Publish(ev)
		}
	})
}

// benchBatch builds one rank's 512-event LWP/HWT/Mem shipment, the batch
// shape both wire and ingest benchmarks round-trip.
func benchBatch(rank, batchSize int) *aggd.Batch {
	batch := &aggd.Batch{Origin: aggd.Origin{Job: "bench", Node: "n0", Rank: rank}, Epoch: 1}
	for i := 0; i < batchSize; i++ {
		t := float64(i) * 0.001
		switch i % 3 {
		case 0:
			batch.Events = append(batch.Events, export.Event{
				Kind: export.EventLWP, TimeSec: t,
				LWP: &export.LWPSample{TID: 100 + i, Kind: "OpenMP", State: 'R', UserPct: 98, NVCtx: uint64(i), CPU: i % 8},
			})
		case 1:
			batch.Events = append(batch.Events, export.Event{
				Kind: export.EventHWT, TimeSec: t,
				HWT: &export.HWTSample{CPU: i % 8, UserPct: 90, SysPct: 5, IdlePct: 5},
			})
		default:
			batch.Events = append(batch.Events, export.Event{
				Kind: export.EventMem, TimeSec: t,
				Mem: &export.MemSample{FreeKB: 1 << 20, ProcRSSKB: 1 << 18},
			})
		}
	}
	return batch
}

// BenchmarkWireEncodeDecode measures a round trip of one 512-event batch
// through the aggregation wire format (the per-batch cost the node agent
// and aggregator pay off the sampling hot path). The round trip must stay
// allocation-free: encode reuses the caller's buffer and decode lands in a
// reused BatchBuf arena.
func BenchmarkWireEncodeDecode(b *testing.B) {
	const batchSize = 512
	batch := benchBatch(0, batchSize)
	batch.Seq = 1
	frame, err := aggd.EncodeBatchFrame(batch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	buf := make([]byte, 0, len(frame))
	var bb aggd.BatchBuf // reused decode arena, as the ingest path pools them
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = aggd.AppendBatchFrame(buf[:0], batch)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := aggd.DecodeBatchPayloadInto(buf[aggd.FrameHeaderLen:], &bb)
		if err != nil {
			b.Fatal(err)
		}
		if len(dec.Events) != batchSize {
			b.Fatalf("decoded %d events", len(dec.Events))
		}
	}
	b.ReportMetric(float64(len(frame))/batchSize, "bytes/event")
}

// BenchmarkServerIngest measures aggregator ingest throughput with 8
// concurrent node agents each shipping 512-event batches as fast as the
// server accepts them — the job-wide collection load behind the paper's
// always-on monitoring claim. The Gzip variant includes the senders'
// compression cost, bounding the end-to-end path rather than isolating the
// server.
func BenchmarkServerIngest(b *testing.B) {
	const agents = 8
	const batchSize = 512
	run := func(b *testing.B, gz bool) {
		srv := aggd.NewServer(aggd.ServerConfig{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		// Default transports idle only two connections per host; with 8
		// agents that measures TCP churn, not the server.
		ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = agents
		b.ReportAllocs()
		b.ResetTimer()
		var next atomic.Int64
		var wg sync.WaitGroup
		errc := make(chan error, agents)
		for rank := 0; rank < agents; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				client := ts.Client()
				batch := benchBatch(rank, batchSize)
				var frame []byte
				var zbuf bytes.Buffer
				zw := gzip.NewWriter(io.Discard)
				var seq uint64
				for next.Add(1) <= int64(b.N) {
					batch.Seq = seq
					seq++
					var err error
					frame, err = aggd.AppendBatchFrame(frame[:0], batch)
					if err != nil {
						errc <- err
						return
					}
					body, encoding := frame, ""
					if gz {
						zbuf.Reset()
						zw.Reset(&zbuf)
						if _, err := zw.Write(frame); err != nil {
							errc <- err
							return
						}
						if err := zw.Close(); err != nil {
							errc <- err
							return
						}
						body, encoding = zbuf.Bytes(), "gzip"
					}
					req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/ingest", bytes.NewReader(body))
					if err != nil {
						errc <- err
						return
					}
					if encoding != "" {
						req.Header.Set("Content-Encoding", encoding)
					}
					resp, err := client.Do(req)
					if err != nil {
						errc <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode/100 != 2 {
						errc <- fmt.Errorf("ingest returned %s", resp.Status)
						return
					}
				}
			}(rank)
		}
		wg.Wait()
		b.StopTimer()
		select {
		case err := <-errc:
			b.Fatal(err)
		default:
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)*batchSize/secs, "events/s")
		}
		if st := srv.Stats(); st.IngestBatches != uint64(b.N) || st.DupBatches != 0 || st.IngestErrors != 0 {
			b.Fatalf("server stats after %d posts: %+v", b.N, st)
		}
	}
	b.Run("Plain", func(b *testing.B) { run(b, false) })
	b.Run("Gzip", func(b *testing.B) { run(b, true) })
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

// TestStreamPublishZeroAlloc pins the hot-path contract as a test rather
// than a benchmark number someone has to read: publishing with a
// subscriber attached must not allocate. AllocsPerRun counts
// process-global mallocs, so the subscriber is a plain closure with no
// background machinery behind it.
func TestStreamPublishZeroAlloc(t *testing.T) {
	ev := export.Event{
		Kind:    export.EventLWP,
		TimeSec: 1.0,
		LWP:     &export.LWPSample{TID: 42, Kind: "Main", State: 'R', UserPct: 90, CPU: 3},
	}
	var s export.Stream
	delivered := 0
	s.Subscribe(func(export.Event) { delivered++ })
	if avg := testing.AllocsPerRun(1000, func() { s.Publish(ev) }); avg != 0 {
		t.Errorf("Stream.Publish allocates %.1f times per op with a subscriber attached, want 0", avg)
	}
	if delivered == 0 {
		t.Error("subscriber never ran")
	}
}

// BenchmarkRollupEncode measures the leaf→root re-framing cost: eight
// pre-merged 512-event batches encoded into one rollup frame and decoded
// back as the root's ingest path would, per iteration. The bytes/event
// metric is the tree's wire amplification over the flat batch framing.
func BenchmarkRollupEncode(b *testing.B) {
	const batches = 8
	const batchSize = 512
	ru := &aggd.RollupMsg{LeafID: "leaf-0:9100", LeafEpoch: 1}
	for r := 0; r < batches; r++ {
		batch := benchBatch(r, batchSize)
		batch.Seq = uint64(r)
		ru.Batches = append(ru.Batches, *batch)
	}
	frame, err := aggd.EncodeRollupFrame(ru)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	buf := make([]byte, 0, len(frame))
	for i := 0; i < b.N; i++ {
		ru.Seq = uint64(i)
		buf, err = aggd.AppendRollupFrame(buf[:0], ru)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := aggd.DecodeRollupPayload(buf[aggd.FrameHeaderLen:], aggd.WireVersion)
		if err != nil {
			b.Fatal(err)
		}
		if len(dec.Batches) != batches {
			b.Fatalf("decoded %d batches", len(dec.Batches))
		}
	}
	b.ReportMetric(float64(len(frame))/(batches*batchSize), "bytes/event")
}

// BenchmarkTreeIngest measures end-to-end tree throughput: four agents
// ship 512-event batches into a leaf aggregator that re-frames them as
// rollups to a root, and the run only passes if the root's admitted count
// conserves every event — so the number includes leaf admission, forward
// buffering, rollup framing, and root re-merge, not just the front door.
func BenchmarkTreeIngest(b *testing.B) {
	const agents = 4
	const batchSize = 512
	root := aggd.NewServer(aggd.ServerConfig{})
	rootTS := httptest.NewServer(root.Handler())
	defer rootTS.Close()
	leaf := aggd.NewServer(aggd.ServerConfig{Forward: &aggd.ForwardConfig{
		Upstream:      rootTS.URL,
		LeafID:        "bench-leaf",
		Epoch:         1,
		FlushInterval: 2 * time.Millisecond,
		MaxBuffered:   16 << 20,
		DisableGzip:   true,
	}})
	defer leaf.Close()
	leafTS := httptest.NewServer(leaf.Handler())
	defer leafTS.Close()
	leafTS.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = agents

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, agents)
	for rank := 0; rank < agents; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			client := leafTS.Client()
			batch := benchBatch(rank, batchSize)
			var frame []byte
			var seq uint64
			for next.Add(1) <= int64(b.N) {
				batch.Seq = seq
				seq++
				var err error
				frame, err = aggd.AppendBatchFrame(frame[:0], batch)
				if err != nil {
					errc <- err
					return
				}
				resp, err := client.Post(leafTS.URL+"/api/ingest", "application/octet-stream", bytes.NewReader(frame))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode/100 != 2 {
					errc <- fmt.Errorf("leaf ingest returned %s", resp.Status)
					return
				}
			}
		}(rank)
	}
	wg.Wait()
	// Drain the forward buffer before the clock stops: the benchmark claims
	// delivered-to-root throughput, not accepted-at-leaf throughput.
	// Flush serializes with any in-flight shipment, so the books balance
	// once a flush returns with nothing left pending.
	for {
		if !leaf.Forwarder().Flush() {
			b.Fatalf("leaf flush failed: %+v", leaf.Forwarder().Stats())
		}
		fs := leaf.Forwarder().Stats()
		if fs.PendingEvents == 0 && fs.EnqueuedEvents == fs.AckedEvents+fs.DroppedEvents {
			break
		}
	}
	b.StopTimer()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*batchSize/secs, "events/s")
	}
	want := uint64(b.N) * batchSize
	if fs := leaf.Forwarder().Stats(); fs.DroppedEvents != 0 || fs.AckedEvents != want {
		b.Fatalf("forwarder lost events: %+v (want %d acked)", fs, want)
	}
	if st := root.Stats(); st.IngestEvents != want || st.DupBatches != 0 || st.RollupSkippedEvents != 0 {
		b.Fatalf("root stats after %d batches: %+v", b.N, st)
	}
}
