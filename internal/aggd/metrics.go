package aggd

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4): the live per-job view
// of every streamed resource — per-HWT utilization, involuntary context
// switches, GPU busy %, memory, and per-stream heartbeat age — plus the
// aggregator's own ingest counters.

// metricFamily collects one family's series before emission so the output
// is grouped under a single HELP/TYPE header, as the format requires.
type metricFamily struct {
	name string
	help string
	typ  string // "gauge" or "counter"
	rows []string
}

func (f *metricFamily) add(labels string, value float64) {
	var b strings.Builder
	b.WriteString(f.name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(value, 'g', -1, 64))
	f.rows = append(f.rows, b.String())
}

func (f *metricFamily) write(w io.Writer) error {
	if len(f.rows) == 0 {
		return nil
	}
	sort.Strings(f.rows)
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
		return err
	}
	for _, row := range f.rows {
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func streamLabels(job string, key rankKey) string {
	return fmt.Sprintf(`job="%s",node="%s",rank="%d"`,
		escapeLabel(job), escapeLabel(key.node), key.rank)
}

// WriteMetrics renders the exposition document.
func (s *Server) WriteMetrics(w io.Writer) error {
	families := []*metricFamily{
		{name: "zerosum_ingest_batches_total", help: "Event batches accepted by the aggregator.", typ: "counter"},
		{name: "zerosum_ingest_events_total", help: "Stream events accepted by the aggregator.", typ: "counter"},
		{name: "zerosum_ingest_snapshots_total", help: "Rank snapshots accepted by the aggregator.", typ: "counter"},
		{name: "zerosum_ingest_errors_total", help: "Rejected ingest requests.", typ: "counter"},
		{name: "zerosum_lost_batches_total", help: "Batch sequence gaps observed across all streams.", typ: "counter"},
		{name: "zerosum_recovered_batches_total", help: "Gap batches later delivered by an agent retry.", typ: "counter"},
		{name: "zerosum_duplicate_batches_total", help: "Replayed batches skipped by sequence dedup.", typ: "counter"},
		{name: "zerosum_corrupt_frames_total", help: "Ingest frames rejected for checksum or framing damage.", typ: "counter"},
		{name: "zerosum_rollup_frames_total", help: "Rollup frames received from downstream leaf aggregators.", typ: "counter"},
		{name: "zerosum_rollup_duplicate_total", help: "Replayed rollups skipped by per-leaf (epoch, seq) dedup.", typ: "counter"},
		{name: "zerosum_rollup_lost_total", help: "Rollup sequence gaps observed across all leaves.", typ: "counter"},
		{name: "zerosum_rollup_recovered_total", help: "Gap rollups later delivered by a leaf retry.", typ: "counter"},
		{name: "zerosum_rollup_skipped_events_total", help: "Events in rollup-embedded batches rejected by per-origin dedup.", typ: "counter"},
		{name: "zerosum_response_write_errors_total", help: "Response bodies that failed mid-write (client hangups).", typ: "counter"},
		{name: "zerosum_stream_events_total", help: "Events received per stream.", typ: "counter"},
		{name: "zerosum_heartbeat_age_seconds", help: "Seconds since the last frame arrived from a stream.", typ: "gauge"},
		{name: "zerosum_hwt_idle_pct", help: "Latest sampled idle share of a hardware thread.", typ: "gauge"},
		{name: "zerosum_hwt_sys_pct", help: "Latest sampled system share of a hardware thread.", typ: "gauge"},
		{name: "zerosum_hwt_user_pct", help: "Latest sampled user share of a hardware thread.", typ: "gauge"},
		{name: "zerosum_lwp_nvctx_total", help: "Cumulative involuntary context switches over a rank's threads.", typ: "counter"},
		{name: "zerosum_lwp_vctx_total", help: "Cumulative voluntary context switches over a rank's threads.", typ: "counter"},
		{name: "zerosum_lwp_stalled", help: "Threads of a rank currently flagged stalled by progress detection.", typ: "gauge"},
		{name: "zerosum_lwp_stall_events_total", help: "Stall flag raises observed over a rank's threads (survives the stall clearing).", typ: "counter"},
		{name: "zerosum_gpu_busy_pct", help: "Latest sampled Device Busy % per GPU.", typ: "gauge"},
		{name: "zerosum_mem_free_kb", help: "Latest sampled free system memory on a rank's node.", typ: "gauge"},
		{name: "zerosum_mem_rss_kb", help: "Latest sampled process RSS of a rank.", typ: "gauge"},
		{name: "zerosum_tsdb_samples_total", help: "Samples appended to a job's time-series store.", typ: "counter"},
		{name: "zerosum_tsdb_series", help: "Live series in a job's time-series store.", typ: "gauge"},
		{name: "zerosum_tsdb_bytes", help: "Compressed bytes held by a job's time-series store.", typ: "gauge"},
		{name: "zerosum_tsdb_sealed_chunks", help: "Sealed immutable chunks in a job's time-series store.", typ: "gauge"},
		{name: "zerosum_tsdb_evicted_samples_total", help: "Samples dropped from a job's store by retention.", typ: "counter"},
	}
	const (
		fBatches = iota
		fEvents
		fSnaps
		fErrors
		fLost
		fRecovered
		fDup
		fCorrupt
		fRollupFrames
		fRollupDup
		fRollupLost
		fRollupRecovered
		fRollupSkipped
		fWriteErrors
		fStreamEvents
		fHeartbeat
		fIdle
		fSys
		fUser
		fNVCtx
		fVCtx
		fStalled
		fStallEvents
		fGPU
		fMemFree
		fMemRSS
		fTSDBSamples
		fTSDBSeries
		fTSDBBytes
		fTSDBSealed
		fTSDBEvicted
	)
	families[fBatches].add("", float64(s.ingestBatches.Load()))
	families[fEvents].add("", float64(s.ingestEvents.Load()))
	families[fSnaps].add("", float64(s.ingestSnapshots.Load()))
	families[fErrors].add("", float64(s.ingestErrors.Load()))
	families[fLost].add("", float64(s.lostBatches.Load()))
	families[fRecovered].add("", float64(s.recoveredBatches.Load()))
	families[fDup].add("", float64(s.dupBatches.Load()))
	families[fCorrupt].add("", float64(s.corruptFrames.Load()))
	families[fRollupFrames].add("", float64(s.rollupFrames.Load()))
	families[fRollupDup].add("", float64(s.dupRollups.Load()))
	families[fRollupLost].add("", float64(s.lostRollups.Load()))
	families[fRollupRecovered].add("", float64(s.recoveredRollups.Load()))
	families[fRollupSkipped].add("", float64(s.rollupSkippedEvents.Load()))
	families[fWriteErrors].add("", float64(s.writeErrors.Load()))

	now := s.cfg.Now()
	s.eachJob(func(name string, js *jobStore) {
		//zerosum:locked rankShard.mu eachRank holds the shard lock around fn
		js.eachRank(func(key rankKey, rs *rankState) {
			base := streamLabels(name, key)
			families[fStreamEvents].add(base, float64(rs.events))
			if !rs.lastRecv.IsZero() {
				families[fHeartbeat].add(base, now.Sub(rs.lastRecv).Seconds())
			}
			if v := rs.views; v != nil { // a leaf keeps no live views
				for cpu, hv := range v.hwt {
					labels := fmt.Sprintf(`cpu="%d",%s`, cpu, base)
					families[fIdle].add(labels, hv.last.IdlePct)
					families[fSys].add(labels, hv.last.SysPct)
					families[fUser].add(labels, hv.last.UserPct)
				}
				var nv, vc, stalled uint64
				for _, lv := range v.lwp {
					nv, vc = nv+lv.nvctx, vc+lv.vctx
					if lv.stalled {
						stalled++
					}
				}
				if len(v.lwp) > 0 {
					families[fNVCtx].add(base, float64(nv))
					families[fVCtx].add(base, float64(vc))
					families[fStalled].add(base, float64(stalled))
					families[fStallEvents].add(base, float64(v.stallEvents))
				}
				for gpu, busy := range v.gpuBusy {
					families[fGPU].add(fmt.Sprintf(`gpu="%d",%s`, gpu, base), busy)
				}
				if v.memFree > 0 {
					families[fMemFree].add(base, float64(v.memFree))
				}
				if v.memRSS > 0 {
					families[fMemRSS].add(base, float64(v.memRSS))
				}
			}
		})
	})
	if s.store != nil {
		for _, job := range s.store.Jobs() {
			js := s.store.JobStats(job)
			labels := fmt.Sprintf(`job="%s"`, escapeLabel(job))
			families[fTSDBSamples].add(labels, float64(js.Samples))
			families[fTSDBSeries].add(labels, float64(js.Series))
			families[fTSDBBytes].add(labels, float64(js.Bytes))
			families[fTSDBSealed].add(labels, float64(js.SealedChunks))
			families[fTSDBEvicted].add(labels, float64(js.EvictedSamples))
		}
	}
	for _, f := range families {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.WriteMetrics(w); err != nil {
		// Headers are already out; all we can do is count the broken scrape.
		s.writeErrors.Add(1)
	}
}
