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

// lwpView is one thread's live view: its cached tsdb handles (one per
// metric the aggregator derives from an LWP sample) and its latest sample's
// context-switch counts and stall flag.
type lwpView struct {
	userS, sysS, vctxS, nvctxS, stalledS *tsdb.Series
	vctx, nvctx                          uint64 // cumulative
	stalled                              bool
}

// hwtView is one hardware thread's cached tsdb handles and latest sample.
type hwtView struct {
	idleS, sysS, userS *tsdb.Series
	last               export.HWTSample
}

type gpuSeriesKey struct {
	gpu    int
	metric string
}

// resolveLWP pays the series-map lookups for a newly seen TID; every later
// sample of the stream reuses the handles.
//
//zerosum:coldpath
func resolveLWP(ba *tsdb.BatchAppender, node string, rank, tid int) *lwpView {
	key := tsdb.SeriesKey{Node: node, Rank: rank, TID: tid}
	lv := &lwpView{}
	key.Metric = metricLWPUserPct
	lv.userS = ba.Resolve(key)
	key.Metric = metricLWPSysPct
	lv.sysS = ba.Resolve(key)
	key.Metric = metricLWPVCtx
	lv.vctxS = ba.Resolve(key)
	key.Metric = metricLWPNVCtx
	lv.nvctxS = ba.Resolve(key)
	key.Metric = metricLWPStalled
	lv.stalledS = ba.Resolve(key)
	return lv
}

//zerosum:coldpath
func resolveHWT(ba *tsdb.BatchAppender, node string, rank, cpu int) *hwtView {
	key := tsdb.SeriesKey{Node: node, Rank: rank, TID: cpu}
	hv := &hwtView{}
	key.Metric = metricHWTIdlePct
	hv.idleS = ba.Resolve(key)
	key.Metric = metricHWTSysPct
	hv.sysS = ba.Resolve(key)
	key.Metric = metricHWTUserPct
	hv.userS = ba.Resolve(key)
	return hv
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

// applyBatch admits one batch, reporting whether it was new data (false: a
// replay or stale-epoch straggler the dedup skipped). payload is the
// FrameBatch payload b was decoded from. A leaf queues an admitted batch's
// payload for the upstream rollup — under the shard lock, which is what
// keeps one origin's batches in admission order on the wire up the tree —
// and keeps nothing else; a root merges it into its store and live views.
func (s *Server) applyBatch(b *Batch, payload []byte) bool {
	now := s.cfg.Now()
	key := rankKey{node: b.Node, rank: b.Rank}
	sh := s.job(b.Job).shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rs := sh.rank(key, s.store != nil)
	rs.lastRecv = now // even a replay proves the stream is alive
	verdict, gap := rs.seq.admit(b.Epoch, b.Seq)
	if !verdict.tally(gap, &s.lostBatches, &s.recoveredBatches, &s.dupBatches) {
		return false
	}
	rs.events += uint64(len(b.Events))
	if s.fwd != nil {
		s.fwd.EnqueueBatch(payload, len(b.Events))
	} else {
		rs.views.merge(s.store, b)
	}
	s.ingestBatches.Add(1)
	s.ingestEvents.Add(uint64(len(b.Events)))
	var kinds [len(s.kindEvents)]uint64
	for i := range b.Events {
		if k := b.Events[i].Kind; k != export.EventHeartbeat { // the decoder admits only known kinds
			kinds[k]++
		}
	}
	for k, n := range kinds {
		s.kindEvents[k].Add(n)
	}
	return true
}

// merge appends an admitted batch's samples to store and updates the live
// views from them.
//
//zerosum:locked rankShard.mu callers hold the stream's shard lock
func (v *rankViews) merge(store *tsdb.Store, b *Batch) {
	ba := store.BeginBatch(b.Job, b.Node, b.Rank)
	for i := range b.Events {
		ev := &b.Events[i]
		t := tsdb.TimeToNanos(ev.TimeSec)
		switch ev.Kind {
		case export.EventLWP:
			lv := v.lwp[ev.LWP.TID]
			if lv == nil {
				lv = resolveLWP(&ba, b.Node, b.Rank, ev.LWP.TID)
				v.lwp[ev.LWP.TID] = lv
			}
			if ev.LWP.Stalled && !lv.stalled {
				v.stallEvents++
			}
			lv.vctx, lv.nvctx, lv.stalled = ev.LWP.VCtx, ev.LWP.NVCtx, ev.LWP.Stalled
			ba.Append(lv.userS, t, ev.LWP.UserPct)
			ba.Append(lv.sysS, t, ev.LWP.SysPct)
			ba.Append(lv.vctxS, t, float64(ev.LWP.VCtx))
			ba.Append(lv.nvctxS, t, float64(ev.LWP.NVCtx))
			ba.Append(lv.stalledS, t, boolSample(ev.LWP.Stalled))
		case export.EventHWT:
			hv := v.hwt[ev.HWT.CPU]
			if hv == nil {
				hv = resolveHWT(&ba, b.Node, b.Rank, ev.HWT.CPU)
				v.hwt[ev.HWT.CPU] = hv
			}
			hv.last = *ev.HWT
			ba.Append(hv.idleS, t, ev.HWT.IdlePct)
			ba.Append(hv.sysS, t, ev.HWT.SysPct)
			ba.Append(hv.userS, t, ev.HWT.UserPct)
		case export.EventGPU:
			if ev.GPU.Metric == "Device Busy %" {
				v.gpuBusy[ev.GPU.GPU] = ev.GPU.Value
			}
			gk := gpuSeriesKey{gpu: ev.GPU.GPU, metric: ev.GPU.Metric}
			gs := v.gpuSeries[gk]
			if gs == nil {
				gs = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank,
					TID: ev.GPU.GPU, Metric: gpuMetricName(ev.GPU.Metric)})
				v.gpuSeries[gk] = gs
			}
			ba.Append(gs, t, ev.GPU.Value)
		case export.EventMem:
			v.memFree = ev.Mem.FreeKB
			v.memRSS = ev.Mem.ProcRSSKB
			if v.memFreeS == nil {
				v.memFreeS = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, Metric: metricMemFreeKB})
				v.memRSSS = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, Metric: metricMemRSSKB})
			}
			ba.Append(v.memFreeS, t, float64(ev.Mem.FreeKB))
			ba.Append(v.memRSSS, t, float64(ev.Mem.ProcRSSKB))
		case export.EventIO:
			if v.ioReadS == nil {
				v.ioReadS = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, Metric: metricIOReadBytes})
				v.ioWriteS = ba.Resolve(tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, Metric: metricIOWriteBytes})
			}
			ba.Append(v.ioReadS, t, float64(ev.IO.ReadBytes))
			ba.Append(v.ioWriteS, t, float64(ev.IO.WriteBytes))
		}
	}
	ba.End()
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

// gpuMetricName maps a sampler GPU metric label to a stable series name;
// labels outside the known sampler set fall through to a "gpu."-prefixed
// copy (an allocation, but only on a stream's first sample of the metric).
func gpuMetricName(label string) string {
	if label == "Device Busy %" {
		return "gpu.busy_pct"
	}
	return "gpu." + label
}

func boolSample(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// applySnapshot takes one snapshot document: a root stores it, a leaf only
// queues payload, the FrameSnapshot payload msg was decoded from, for the
// upstream rollup.
func (s *Server) applySnapshot(msg *SnapshotMsg, payload []byte) {
	now := s.cfg.Now()
	key := rankKey{node: msg.Node, rank: msg.Rank}
	sh := s.job(msg.Job).shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.rank(key, s.store != nil).lastRecv = now
	if s.fwd != nil {
		s.fwd.EnqueueSnapshot(msg.Origin, payload)
	} else {
		s.store.SetSnapshot(msg.Job, msg.Node, msg.Rank, msg.Snapshot, msg.CommRow)
	}
	s.ingestSnapshots.Add(1)
}
