package aggd

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"zerosum/internal/export"
)

// arenaBatch builds a batch exercising every event kind, sized and labeled
// by seed so consecutive batches differ in shape as well as content.
func arenaBatch(seed int) *Batch {
	b := &Batch{
		Origin: Origin{Job: fmt.Sprintf("job%d", seed%3), Node: fmt.Sprintf("node%d", seed%5), Rank: seed % 7},
		Epoch:  uint64(seed%2 + 1),
		Seq:    uint64(seed),
	}
	n := 16 + 13*seed
	for i := 0; i < n; i++ {
		t := float64(seed*1000+i) * 0.25
		switch i % 6 {
		case 0:
			b.Events = append(b.Events, export.Event{Kind: export.EventLWP, TimeSec: t,
				LWP: &export.LWPSample{TimeSec: t, TID: 100 + i, Kind: "OpenMP", State: 'R',
					UserPct: float64(i), SysPct: 1, VCtx: uint64(i), NVCtx: uint64(2 * i),
					MinFlt: 3, MajFlt: 4, NSwap: 5, CPU: i % 8}})
		case 1:
			b.Events = append(b.Events, export.Event{Kind: export.EventHWT, TimeSec: t,
				HWT: &export.HWTSample{TimeSec: t, CPU: i % 8, IdlePct: 10, SysPct: 20, UserPct: 70}})
		case 2:
			b.Events = append(b.Events, export.Event{Kind: export.EventGPU, TimeSec: t,
				GPU: &export.GPUSample{TimeSec: t, GPU: i % 4, Metric: "Device Busy %", Value: float64(i)}})
		case 3:
			b.Events = append(b.Events, export.Event{Kind: export.EventMem, TimeSec: t,
				Mem: &export.MemSample{TimeSec: t, TotalKB: 1 << 24, FreeKB: uint64(i) << 10,
					AvailKB: 1 << 22, ProcRSSKB: uint64(i), ProcHWMKB: uint64(2 * i)}})
		case 4:
			b.Events = append(b.Events, export.Event{Kind: export.EventIO, TimeSec: t,
				IO: &export.IOSample{TimeSec: t, RChar: 1, WChar: 2, SyscR: 3, SyscW: 4,
					ReadBytes: uint64(i), WriteBytes: uint64(i * 2)}})
		default:
			b.Events = append(b.Events, export.Event{Kind: export.EventHeartbeat, TimeSec: t})
		}
	}
	return b
}

// TestDecodeBatchPayloadIntoEquivalence: the arena decoder and the one-shot
// decoder must agree, and both must survive a re-encode byte-for-byte.
func TestDecodeBatchPayloadIntoEquivalence(t *testing.T) {
	batch := arenaBatch(2)
	frame, err := EncodeBatchFrame(batch)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[FrameHeaderLen:]

	fresh, err := DecodeBatchPayloadInto(payload, new(BatchBuf))
	if err != nil {
		t.Fatal(err)
	}
	var bb BatchBuf
	pooled, err := DecodeBatchPayloadInto(payload, &bb)
	if err != nil {
		t.Fatal(err)
	}
	for name, dec := range map[string]*Batch{"fresh": fresh, "pooled": pooled} {
		re, err := EncodeBatchFrame(dec)
		if err != nil {
			t.Fatalf("%s re-encode: %v", name, err)
		}
		if !bytes.Equal(re, frame) {
			t.Errorf("%s decode → encode is not byte-identical to the original frame", name)
		}
	}
}

// TestDecodeArenaReuseByteIdentity reuses one arena across batches of
// different shapes and sizes; every decode must re-encode byte-identically,
// with no residue from the previous occupant.
func TestDecodeArenaReuseByteIdentity(t *testing.T) {
	var bb BatchBuf
	for seed := 0; seed < 8; seed++ {
		batch := arenaBatch(seed)
		frame, err := EncodeBatchFrame(batch)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeBatchPayloadInto(frame[FrameHeaderLen:], &bb)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(dec.Events) != len(batch.Events) {
			t.Fatalf("seed %d: decoded %d events, want %d", seed, len(dec.Events), len(batch.Events))
		}
		re, err := EncodeBatchFrame(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, frame) {
			t.Errorf("seed %d: arena decode → encode is not byte-identical", seed)
		}
	}
}

// TestDecodeIntoZeroSteadyStateAlloc gates the ingest half of the
// zero-allocation contract below the HTTP layer: with a warm arena and
// intern table, decoding a batch allocates nothing.
func TestDecodeIntoZeroSteadyStateAlloc(t *testing.T) {
	batch := arenaBatch(3)
	frame, err := EncodeBatchFrame(batch)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[FrameHeaderLen:]
	var bb BatchBuf
	if _, err := DecodeBatchPayloadInto(payload, &bb); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBatchPayloadInto(payload, &bb); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm arena decode allocates %.1f per run, want 0", avg)
	}
}

// TestFrameScannerReuseZeroAlloc: a warm, Reset scanner iterates a healthy
// multi-frame stream without allocating.
func TestFrameScannerReuseZeroAlloc(t *testing.T) {
	var stream []byte
	for seed := 0; seed < 3; seed++ {
		frame, err := EncodeBatchFrame(arenaBatch(seed))
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	r := bytes.NewReader(stream)
	sc := NewFrameScanner(r)
	scan := func() {
		if _, err := r.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		sc.Reset(r)
		frames := 0
		for {
			_, _, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			frames++
		}
		if frames != 3 {
			t.Fatalf("scanned %d frames, want 3", frames)
		}
	}
	scan() // warm the payload buffer
	if avg := testing.AllocsPerRun(100, scan); avg != 0 {
		t.Errorf("warm scanner pass allocates %.1f per run, want 0", avg)
	}
}

// reusedBody and reusedResponse let the ingest alloc gate drive the handler
// with one in-memory request and response, so what it counts is the
// server's work and not a client's or a socket's.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

type reusedResponse struct {
	header http.Header
	code   int
}

func (w *reusedResponse) Header() http.Header         { return w.header }
func (w *reusedResponse) Write(p []byte) (int, error) { return len(p), nil }
func (w *reusedResponse) WriteHeader(code int)        { w.code = code }

// TestServerIngestWarmAllocs holds the whole ingest handler — mux, gunzip,
// scan, decode, dedup, merge, TSDB append — to the allocations a warm server
// spends admitting one 512-event batch (LWP/HWT/Mem, a fresh sequence
// number every request). The ceilings are the
// counts measured when the gate was last tightened; any new allocation on
// the ingest path fails it. The TSDB's chunk growth is amortised into the
// average, so the run count is part of the measurement. The leaf row is a
// relay: it stores nothing, so it must stay well under the root's count.
func TestServerIngestWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode makes sync.Pool drop entries by design; the pooled ingest scratch then reallocates")
	}
	batch := &Batch{Origin: Origin{Job: "bench", Node: "n0", Rank: 0}, Epoch: 1}
	for i := 0; i < 512; i++ {
		ts := float64(i) * 0.001
		switch i % 3 {
		case 0:
			batch.Events = append(batch.Events, export.Event{Kind: export.EventLWP, TimeSec: ts,
				LWP: &export.LWPSample{TID: 100 + i, Kind: "OpenMP", State: 'R', UserPct: 98, NVCtx: uint64(i), CPU: i % 8}})
		case 1:
			batch.Events = append(batch.Events, export.Event{Kind: export.EventHWT, TimeSec: ts,
				HWT: &export.HWTSample{CPU: i % 8, UserPct: 90, SysPct: 5, IdlePct: 5}})
		default:
			batch.Events = append(batch.Events, export.Event{Kind: export.EventMem, TimeSec: ts,
				Mem: &export.MemSample{FreeKB: 1 << 20, ProcRSSKB: 1 << 18}})
		}
	}
	for _, c := range []struct {
		name string
		gzip bool
		leaf bool
		max  float64
	}{
		{"plain", false, false, 15},
		{"gzip", true, false, 21},
		{"leaf", false, true, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := ServerConfig{}
			if c.leaf {
				// Nothing flushes during the measurement: the relay's cost
				// is the enqueue, which TestForwarderAllocs holds on its own.
				cfg.Forward = &ForwardConfig{Upstream: "http://upstream.invalid", LeafID: "leaf-under-test",
					FlushInterval: time.Hour, EagerEvents: 1 << 30, MaxBuffered: 1 << 30,
					Client: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
						return &http.Response{StatusCode: http.StatusNoContent, Body: http.NoBody}, nil
					})}}
			}
			srv := NewServer(cfg)
			defer srv.Close()
			handler := srv.Handler()
			var (
				frame []byte
				zbuf  bytes.Buffer
				zw    = gzip.NewWriter(io.Discard)
				body  reusedBody
				resp  = &reusedResponse{header: http.Header{}}
				req   = httptest.NewRequest(http.MethodPost, "/api/ingest", nil)
			)
			req.Body = &body
			if c.gzip {
				req.Header.Set("Content-Encoding", "gzip")
			}
			post := func() {
				batch.Seq++
				var err error
				if frame, err = AppendBatchFrame(frame[:0], batch); err != nil {
					t.Fatal(err)
				}
				payload := frame
				if c.gzip {
					zbuf.Reset()
					zw.Reset(&zbuf)
					if _, err := zw.Write(frame); err != nil {
						t.Fatal(err)
					}
					if err := zw.Close(); err != nil {
						t.Fatal(err)
					}
					payload = zbuf.Bytes()
				}
				body.Reset(payload)
				handler.ServeHTTP(resp, req)
				if resp.code != http.StatusNoContent {
					t.Fatalf("ingest status %d", resp.code)
				}
			}
			const runs = 200
			before := srv.Stats().IngestBatches
			avg := testing.AllocsPerRun(runs, post)
			if got := srv.Stats().IngestBatches - before; got != runs+1 {
				t.Fatalf("admitted %d of %d posted batches", got, runs+1)
			}
			if avg > c.max {
				t.Errorf("warm ingest of a 512-event batch allocates %.0f per request, ceiling %.0f", avg, c.max)
			}
		})
	}
}
