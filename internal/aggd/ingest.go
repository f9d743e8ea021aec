package aggd

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"zerosum/internal/export"
	"zerosum/internal/obs"
	"zerosum/internal/tsdb"
)

// lwpSeries bundles one LWP stream's cached tsdb handles (one per metric
// the aggregator derives from an LWP sample).
type lwpSeries struct {
	user, sys, vctx, nvctx, stalled *tsdb.Series
}

// hwtSeries bundles one hardware thread's cached tsdb handles.
type hwtSeries struct {
	idle, sys, user *tsdb.Series
}

type gpuSeriesKey struct {
	gpu    int
	metric string
}

// resolveLWPSeries pays the series-map lookups for a newly seen TID; every
// later sample of the stream reuses the handles.
//
//zerosum:coldpath
func resolveLWPSeries(ba *tsdb.BatchAppender, node string, rank, tid int) *lwpSeries {
	key := tsdb.SeriesKey{Node: node, Rank: rank, TID: tid}
	ls := &lwpSeries{}
	key.Metric = metricLWPUserPct
	ls.user = ba.Resolve(key)
	key.Metric = metricLWPSysPct
	ls.sys = ba.Resolve(key)
	key.Metric = metricLWPVCtx
	ls.vctx = ba.Resolve(key)
	key.Metric = metricLWPNVCtx
	ls.nvctx = ba.Resolve(key)
	key.Metric = metricLWPStalled
	ls.stalled = ba.Resolve(key)
	return ls
}

//zerosum:coldpath
func resolveHWTSeries(ba *tsdb.BatchAppender, node string, rank, cpu int) *hwtSeries {
	key := tsdb.SeriesKey{Node: node, Rank: rank, TID: cpu}
	hs := &hwtSeries{}
	key.Metric = metricHWTIdlePct
	hs.idle = ba.Resolve(key)
	key.Metric = metricHWTSysPct
	hs.sys = ba.Resolve(key)
	key.Metric = metricHWTUserPct
	hs.user = ba.Resolve(key)
	return hs
}

// Pooled ingest scratch. Every request needs a gzip inflater (its internal
// window alone is tens of kilobytes), a frame scanner (64 KiB read buffer
// plus payload buffer), and a batch decode arena; all three recycle across
// requests so a steady agent fleet ingests with near-zero per-request
// allocation. The arena is safe to reuse per frame because applyBatch copies
// everything it keeps out of the decoded events.
var (
	gzrPool     sync.Pool // *gzip.Reader; no New — first use constructs from the body
	scannerPool = sync.Pool{New: func() any { return NewFrameScanner(nil) }}
	batchPool   = sync.Pool{New: func() any { return new(BatchBuf) }}
)

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ingestStart := s.cfg.Now()
	defer func() {
		s.obs.Record(obs.StageIngest, ingestStart, s.cfg.Now().Sub(ingestStart))
	}()
	var body io.Reader = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	if r.Header.Get("Content-Encoding") == "gzip" {
		var zr *gzip.Reader
		var err error
		if v := gzrPool.Get(); v != nil {
			zr = v.(*gzip.Reader)
			err = zr.Reset(body)
		} else {
			zr, err = gzip.NewReader(body)
		}
		if err != nil {
			if zr != nil {
				gzrPool.Put(zr)
			}
			s.ingestErrors.Add(1)
			http.Error(w, "bad gzip body: "+err.Error(), http.StatusBadRequest)
			return
		}
		defer func() {
			_ = zr.Close()
			gzrPool.Put(zr)
		}()
		body = zr
	}
	// A body may interleave healthy and damaged frames (bit flips,
	// truncation, garbage from a half-written buffer). The scanner applies
	// every frame that survives its checksum and resynchronizes past the
	// rest; any damage still fails the request so the agent retries the
	// whole body, and sequence dedup makes that retry idempotent.
	sc := scannerPool.Get().(*FrameScanner)
	sc.Reset(body)
	defer func() {
		sc.Reset(nil) // drop the request body reference before pooling
		scannerPool.Put(sc)
	}()
	bb := batchPool.Get().(*BatchBuf)
	defer batchPool.Put(bb)
	frames, corrupt := 0, 0
	var firstErr error
	for {
		kind, payload, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			corrupt++
			s.corruptFrames.Add(1)
			if firstErr == nil {
				firstErr = err
			}
			var ce *CorruptFrameError
			if errors.As(err, &ce) {
				continue // scanner resynchronized; keep consuming
			}
			break // truncated stream or read failure: nothing left to scan
		}
		switch kind {
		case FrameBatch:
			b, err := DecodeBatchPayloadInto(payload, bb)
			if err != nil {
				corrupt++
				s.corruptFrames.Add(1)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			s.applyBatch(b, payload)
			frames++
		case FrameSnapshot:
			msg, err := DecodeSnapshotPayload(payload)
			if err != nil {
				corrupt++
				s.corruptFrames.Add(1)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			s.applySnapshot(msg, payload)
			frames++
		case FrameRollup:
			if err := s.applyRollup(payload, bb); err != nil {
				corrupt++
				s.corruptFrames.Add(1)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			frames++
		}
	}
	if corrupt > 0 {
		s.ingestErrors.Add(1)
		s.obs.RecordError(obs.StageIngest)
		http.Error(w, fmt.Sprintf("aggd: %d corrupt frame(s) in body (%d applied): %v",
			corrupt, frames, firstErr), http.StatusBadRequest)
		return
	}
	if frames == 0 {
		s.ingestErrors.Add(1)
		s.obs.RecordError(obs.StageIngest)
		http.Error(w, "aggd: empty ingest body", http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// applyBatch merges one batch, reporting whether it was admitted as new
// data (false: a replay or stale-epoch straggler the dedup skipped).
// payload is the FrameBatch payload b was decoded from: on a leaf, an
// admitted batch's payload is also queued for the upstream rollup — under
// the same shard lock, which is what keeps one origin's batches in
// admission order on the wire up the tree.
func (s *Server) applyBatch(b *Batch, payload []byte) bool {
	now := s.cfg.Now()
	js := s.job(b.Job)
	sh := js.shardFor(rankKey{node: b.Node, rank: b.Rank})
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rs := sh.rank(rankKey{node: b.Node, rank: b.Rank})
	rs.lastRecv = now // even a replay proves the stream is alive
	verdict, gap := rs.seq.admit(b.Epoch, b.Seq)
	if !verdict.tally(gap, &s.lostBatches, &s.recoveredBatches, &s.dupBatches) {
		return false
	}
	if s.fwd != nil {
		s.fwd.EnqueueBatch(payload, len(b.Events))
	}
	rs.events += uint64(len(b.Events))
	var nLWP, nHWT, nGPU, nMem, nIO uint64
	ba := s.store.BeginBatch(b.Job, b.Node, b.Rank)
	for i := range b.Events {
		ev := &b.Events[i]
		if ev.TimeSec > rs.lastSampleT {
			rs.lastSampleT = ev.TimeSec
		}
		t := tsdb.TimeToNanos(ev.TimeSec)
		switch ev.Kind {
		case export.EventLWP:
			rs.nvctx[ev.LWP.TID] = ev.LWP.NVCtx
			rs.vctx[ev.LWP.TID] = ev.LWP.VCtx
			if ev.LWP.Stalled {
				if !rs.stalled[ev.LWP.TID] {
					rs.stallEvents++
				}
				rs.stalled[ev.LWP.TID] = true
			} else {
				delete(rs.stalled, ev.LWP.TID)
			}
			nLWP++
			ls := rs.lwpSeries[ev.LWP.TID]
			if ls == nil {
				ls = resolveLWPSeries(&ba, b.Node, b.Rank, ev.LWP.TID)
				rs.lwpSeries[ev.LWP.TID] = ls
			}
			ba.Append(ls.user, t, ev.LWP.UserPct)
			ba.Append(ls.sys, t, ev.LWP.SysPct)
			ba.Append(ls.vctx, t, float64(ev.LWP.VCtx))
			ba.Append(ls.nvctx, t, float64(ev.LWP.NVCtx))
			ba.Append(ls.stalled, t, boolSample(ev.LWP.Stalled))
		case export.EventHWT:
			rs.hwt[ev.HWT.CPU] = *ev.HWT
			nHWT++
			hs := rs.hwtSeries[ev.HWT.CPU]
			if hs == nil {
				hs = resolveHWTSeries(&ba, b.Node, b.Rank, ev.HWT.CPU)
				rs.hwtSeries[ev.HWT.CPU] = hs
			}
			ba.Append(hs.idle, t, ev.HWT.IdlePct)
			ba.Append(hs.sys, t, ev.HWT.SysPct)
			ba.Append(hs.user, t, ev.HWT.UserPct)
		case export.EventGPU:
			if ev.GPU.Metric == "Device Busy %" {
				rs.gpuBusy[ev.GPU.GPU] = ev.GPU.Value
			}
			nGPU++
			gk := gpuSeriesKey{gpu: ev.GPU.GPU, metric: ev.GPU.Metric}
			gs := rs.gpuSeries[gk]
			if gs == nil {
				gs = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank,
					TID: ev.GPU.GPU, Metric: gpuMetricName(ev.GPU.Metric)})
				rs.gpuSeries[gk] = gs
			}
			ba.Append(gs, t, ev.GPU.Value)
		case export.EventMem:
			rs.memFree = ev.Mem.FreeKB
			rs.memRSS = ev.Mem.ProcRSSKB
			nMem++
			if rs.memFreeS == nil {
				rs.memFreeS = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, Metric: metricMemFreeKB})
				rs.memRSSS = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, Metric: metricMemRSSKB})
			}
			ba.Append(rs.memFreeS, t, float64(ev.Mem.FreeKB))
			ba.Append(rs.memRSSS, t, float64(ev.Mem.ProcRSSKB))
		case export.EventIO:
			nIO++
			if rs.ioReadS == nil {
				rs.ioReadS = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, Metric: metricIOReadBytes})
				rs.ioWriteS = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, Metric: metricIOWriteBytes})
			}
			ba.Append(rs.ioReadS, t, float64(ev.IO.ReadBytes))
			ba.Append(rs.ioWriteS, t, float64(ev.IO.WriteBytes))
		}
	}
	ba.End()
	s.ingestBatches.Add(1)
	s.ingestEvents.Add(uint64(len(b.Events)))
	if nLWP > 0 {
		s.eventsLWP.Add(nLWP)
	}
	if nHWT > 0 {
		s.eventsHWT.Add(nHWT)
	}
	if nGPU > 0 {
		s.eventsGPU.Add(nGPU)
	}
	if nMem > 0 {
		s.eventsMem.Add(nMem)
	}
	if nIO > 0 {
		s.eventsIO.Add(nIO)
	}
	return true
}

// leafSeq is one downstream leaf's rollup sequence accounting, the same
// window applyBatch runs per origin, one level up: epoch is the leaf
// process incarnation, seq its rollup counter within the epoch (a leaf
// burns a seq on every flush attempt, so an abandoned shipment shows up as
// a lost rollup).
type leafSeq struct {
	seq seqWindow //zerosum:guardedby Server.leafMu
}

// admitRollup decides whether a rollup is new data or a replay that must
// not be merged again. The answer only gates whole-rollup replays (a retry
// racing a lost ack, a restarted leaf resending); the embedded batches
// still run the regular per-origin dedup afterwards, which is what catches
// the same agent batch arriving via two different leaf incarnations.
func (s *Server) admitRollup(leafID string, epoch, seq uint64) bool {
	s.leafMu.Lock()
	defer s.leafMu.Unlock()
	ls := s.leafSeqs[leafID]
	if ls == nil {
		ls = &leafSeq{}
		s.leafSeqs[leafID] = ls
	}
	verdict, gap := ls.seq.admit(epoch, seq)
	return verdict.tally(gap, &s.lostRollups, &s.recoveredRollups, &s.dupRollups)
}

// applyRollup validates and merges one rollup frame. The structure is
// walked — every sub-payload sized and sliced — before (epoch, seq) is
// committed to the leaf's dedup state, so a structurally damaged rollup
// never burns a sequence number; after that point, each embedded batch
// and snapshot applies through the regular ingest paths (per-origin
// dedup included). A sub-payload that fails to decode despite the frame
// passing its CRC (an encoder bug, not line damage) is skipped and
// surfaces as the request's error while the rest of the rollup still
// merges.
func (s *Server) applyRollup(payload []byte, bb *BatchBuf) error {
	var view rollupView
	if err := walkRollupPayload(payload, &view); err != nil {
		return err
	}
	s.rollupFrames.Add(1)
	if !s.admitRollup(view.leafID, view.leafEpoch, view.seq) {
		return nil // replay: everything it carries was already accounted
	}
	var firstErr error
	for i, body := range view.batches {
		b, err := DecodeBatchPayloadInto(body, bb)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("aggd: rollup batch %d: %w", i, err)
			}
			continue
		}
		if !s.applyBatch(b, body) {
			s.rollupSkippedEvents.Add(uint64(len(b.Events)))
		}
	}
	for i, body := range view.snaps {
		msg, err := DecodeSnapshotPayload(body)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("aggd: rollup snapshot %d: %w", i, err)
			}
			continue
		}
		s.applySnapshot(msg, body)
	}
	return firstErr
}

// TSDB metric names for the streamed sample kinds. The per-thread LWP and
// per-CPU HWT families reuse the series key's TID field for their natural
// sub-identity (thread ID, CPU index, GPU index); node-wide samples use
// TID 0.
const (
	metricLWPUserPct   = "lwp.user_pct"
	metricLWPSysPct    = "lwp.sys_pct"
	metricLWPVCtx      = "lwp.vctx"
	metricLWPNVCtx     = "lwp.nvctx"
	metricLWPStalled   = "lwp.stalled"
	metricHWTIdlePct   = "hwt.idle_pct"
	metricHWTSysPct    = "hwt.sys_pct"
	metricHWTUserPct   = "hwt.user_pct"
	metricMemFreeKB    = "mem.free_kb"
	metricMemRSSKB     = "mem.rss_kb"
	metricIOReadBytes  = "io.read_bytes"
	metricIOWriteBytes = "io.write_bytes"
)

// gpuMetricNames maps the sampler's GPU metric labels to stable series
// names; unknown labels fall through to a "gpu."-prefixed copy (an
// allocation, but only for metrics outside the known sampler set).
var gpuMetricNames = map[string]string{
	"Device Busy %": "gpu.busy_pct",
}

func gpuMetricName(label string) string {
	if name, ok := gpuMetricNames[label]; ok {
		return name
	}
	return "gpu." + label
}

func boolSample(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// applySnapshot stores one snapshot document; payload is the FrameSnapshot
// payload msg was decoded from, which a leaf queues for the upstream rollup.
func (s *Server) applySnapshot(msg *SnapshotMsg, payload []byte) {
	now := s.cfg.Now()
	js := s.job(msg.Job)
	sh := js.shardFor(rankKey{node: msg.Node, rank: msg.Rank})
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rs := sh.rank(rankKey{node: msg.Node, rank: msg.Rank})
	rs.lastRecv = now
	s.store.SetSnapshot(msg.Job, msg.Node, msg.Rank, msg.Snapshot, msg.CommRow)
	s.ingestSnapshots.Add(1)
	if s.fwd != nil {
		s.fwd.EnqueueSnapshot(msg.Origin, payload)
	}
}
