package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/export"
	"zerosum/internal/tsdb"
)

// report turns one measured phase into metrics: everything that is a
// difference of counters or a percentile of what generator and reader timed.
func report(res *result, p *pipeline, before, after counters, ps *phaseStats, rd *reader) {
	events := float64(after.visible - before.visible)

	// Rates are the median over half-second slices of the phase, not the
	// phase's mean: a neighbour stealing the machine for a second moves a
	// few slices, not the median.
	perSec, cpuUS := ps.rates()
	res.setPct("events_per_s", perSec, 0.50)
	res.setPct("cpu_us_per_event", cpuUS, 0.50)
	res.setPct("tick_us_p50", ps.handOffs, 0.50)
	res.setPct("tick_us_p99", ps.handOffs, 0.99)
	res.setPct("fresh_ms_p50", rd.fresh, 0.50)
	res.setPct("fresh_ms_p99", rd.fresh, 0.99)
	res.setPct("query_ms_p50", rd.rounds, 0.50)
	res.setPct("query_ms_p99", rd.rounds, 0.99)
	hop1, hop2 := float64(after.hop1-before.hop1), float64(after.hop2-before.hop2)
	res.set("wire_bytes_per_event", ratio(hop1+hop2, events))

	res.set("transport.hop1_bytes_per_event", ratio(hop1, events))
	res.set("transport.hop2_bytes_per_event", ratio(hop2, events))
	res.set("transport.requests", float64(after.ingestN-before.ingestN))
	res.set("transport.conns_accepted", float64(after.conns))

	batches := float64(after.agent.SentBatches - before.agent.SentBatches)
	res.set("aggd.agent.batches", batches)
	res.set("aggd.agent.events_per_batch", ratio(float64(after.agent.SentEvents-before.agent.SentEvents), batches))
	res.set("aggd.agent.retries", float64(after.agent.Retries))
	res.set("aggd.agent.ring_drops", float64(after.agent.RingDrops))
	res.set("aggd.agent.send_drops", float64(after.agent.SendDrops))
	res.set("aggd.agent.window_wait_s", ps.windowWait.Seconds())
	shipUS := ratio(float64(after.shipNS-before.shipNS)/1e3, float64(after.shipN-before.shipN))
	res.set("aggd.agent.ship_us_per_batch", shipUS)

	res.set("aggd.server.ingest_us_per_batch", ratio(float64(after.frontNS-before.frontNS)/1e3, float64(after.frontN-before.frontN)))
	res.set("ledger.ingest_ns_per_event", ratio(float64(after.ingestNS-before.ingestNS), events))
	res.set("ledger.query_us_per_event", ratio(rd.rounds.sum()*float64(len(rotation))*1e3, events))
	res.set("aggd.server.ingest_batches", float64(after.root.IngestBatches-before.root.IngestBatches))
	res.set("aggd.server.dup_batches", float64(after.root.DupBatches+after.front.DupBatches))
	res.set("aggd.server.recovered", float64(after.root.RecoveredBatches+after.front.RecoveredBatches))
	res.set("aggd.server.ingest_errors", float64(after.root.IngestErrors+after.front.IngestErrors))

	rollups := float64(after.fwd.SentRollups - before.fwd.SentRollups)
	res.set("aggd.forward.rollups", rollups)
	res.set("aggd.forward.events_per_rollup", ratio(float64(after.fwd.AckedEvents-before.fwd.AckedEvents), rollups))
	res.set("aggd.forward.pending_events_max", float64(ps.pendingMax))
	res.set("aggd.forward.dropped_events", float64(after.fwd.DroppedEvents))
	res.set("aggd.forward.retries", float64(after.fwd.Retries))

	var samples, held, bytes, series float64
	for _, job := range p.root.TSDB().Jobs() {
		js := p.root.TSDB().JobStats(job)
		samples += float64(js.Samples)
		held += float64(js.Samples - js.EvictedSamples)
		bytes += float64(js.Bytes)
		series += float64(js.Series)
	}
	res.set("tsdb.samples", samples)
	res.set("tsdb.series", series)
	res.set("tsdb.bytes_per_sample", ratio(bytes, held)) // of what retention has left in the store
	res.set("ledger.samples_per_event", ratio(samples, float64(after.visible)))

	res.setPct("aggd.query.latest_ms_p50", rd.lat[qLatest], 0.5)
	res.setPct("aggd.query.range_ms_p50", rd.lat[qRange], 0.5)
	res.setPct("aggd.query.topk_ms_p50", rd.lat[qTopK], 0.5)
	res.setPct("aggd.query.heatmap_ms_p50", rd.lat[qHeatmap], 0.5)

	res.set("go.alloc_bytes_per_event", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), events))
	res.set("go.mallocs_per_event", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), events))
	res.set("go.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	res.set("go.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, (after.cpu-before.cpu).Seconds()))
	res.set("go.peak_heap_mb", float64(after.mem.HeapSys)/(1<<20))
	res.setPct("gen.late_ms_p99", ps.late, 0.99)

	// Failures the pipeline booked itself. Each counts events (or queries)
	// out of everything attempted.
	res.attempted += uint64(events) + rd.issued + uint64(len(ps.handOffs))
	res.fail(after.agent.RingDrops+after.agent.SendDrops, "agents dropped %d ring + %d send events", after.agent.RingDrops, after.agent.SendDrops)
	res.fail(after.fwd.DroppedEvents, "forwarders dropped %d events", after.fwd.DroppedEvents)
	res.fail(after.root.RollupSkippedEvents, "root skipped %d events inside rollups", after.root.RollupSkippedEvents)
	res.fail(rd.failed, "%d failed or wrong queries, first: %s", rd.failed, rd.reason)
	for _, name := range []string{"fresh_ms_p50", "query_ms_p50", "tick_us_p50"} {
		if res.counts[name] == 0 {
			res.fail(1, "%s has no samples", name)
		}
	}
}

// derive computes the per-layer metrics that are differences between what
// the program's own spans saw and what the replays explain. Negative values
// mean the replay, alone on a warm cache, overestimates the layer's share.
func derive(res *result, sp *spec) {
	v := res.values
	explained := v["aggd.wire.gunzip_ns_per_event"] + v["aggd.wire.decode_ns_per_event"] +
		v["aggd.rollup.decode_ns_per_event"] +
		v["tsdb.append_ns_per_sample"]*v["ledger.samples_per_event"]*sp.stores()
	res.set("aggd.server.merge_residual_ns_per_event", v["ledger.ingest_ns_per_event"]-explained)
	perBatch := v["aggd.agent.events_per_batch"]
	res.set("transport.rtt_residual_us_per_batch", v["aggd.agent.ship_us_per_batch"]-
		(v["aggd.wire.encode_ns_per_event"]+v["aggd.wire.gzip_ns_per_event"])*perBatch/1e3-
		v["aggd.server.ingest_us_per_batch"])
}

// httpOverheadUS is what HTTP, parameter parsing and JSON add to a range
// query: the median GET minus the median Store.Query on the same options,
// taken on the idle pipeline after the run.
func httpOverheadUS(p *pipeline) float64 {
	period := p.spec.period().Seconds()
	o := p.origins[0]
	newest := tsdb.NanosToSec(p.root.TSDB().JobStats(o.job).MaxTimeNanos)
	start := max(0, newest-10*period)
	opts := tsdb.QueryOpts{Metric: "hwt.user_pct", Node: o.node, Rank: -1, TID: -1, Agg: tsdb.AggMean,
		Start: tsdb.TimeToNanos(start), End: tsdb.TimeToNanos(newest + period), Step: tsdb.TimeToNanos(5 * period)}
	path := fmt.Sprintf("/api/job/%s/query?metric=hwt.user_pct&agg=mean&node=%s&start=%s&end=%s&step=%s",
		o.job, o.node, ftoa(start), ftoa(newest+period), ftoa(5*period))
	var direct, viaHTTP samples
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		if _, err := p.root.TSDB().Query(o.job, opts); err != nil {
			return 0
		}
		t1 := time.Now()
		if _, err := get(p, path); err != nil {
			return 0
		}
		direct.add(float64(t1.Sub(t0)) / 1e3)
		viaHTTP.add(float64(time.Since(t1)) / 1e3)
	}
	return viaHTTP.pct(0.5) - direct.pct(0.5)
}

// kindSamples is how many TSDB samples one event of each kind appends
// (aggd's applyBatch): LWP 5, HWT 3, GPU 1, Mem 2, IO 2.
var kindSamples = [numKinds]uint64{export.EventLWP: 5, export.EventHWT: 3, export.EventGPU: 1, export.EventMem: 2, export.EventIO: 2}

// checkBooks holds the root to exact conservation: everything published was
// admitted once, nothing twice, per-job censuses add up to the global one
// without bleed between colliding jobs, and the TSDB holds the per-kind
// multiple of the admitted events.
func checkBooks(res *result, p *pipeline) {
	perJob := map[string]uint64{}
	var published uint64
	for i, s := range p.streams {
		perJob[p.origins[i].job] += s.Published()
		published += s.Published()
	}
	st := p.root.Stats()
	if st.IngestEvents != published {
		miss := published - min(published, st.IngestEvents)
		res.fail(max(miss, 1), "root admitted %d events, %d were published", st.IngestEvents, published)
	}
	dups := st.DupBatches + st.DupRollups
	for _, l := range p.leaves {
		dups += l.Stats().DupBatches
	}
	res.fail(dups, "%d duplicate batches or rollups", dups)
	res.fail(st.IngestErrors+st.CorruptFrames, "root booked %d ingest errors, %d corrupt frames", st.IngestErrors, st.CorruptFrames)

	wantSamples := st.EventsLWP*kindSamples[export.EventLWP] + st.EventsHWT*kindSamples[export.EventHWT] +
		st.EventsGPU*kindSamples[export.EventGPU] + st.EventsMem*kindSamples[export.EventMem] + st.EventsIO*kindSamples[export.EventIO]
	var gotSamples uint64
	for _, job := range p.root.TSDB().Jobs() {
		gotSamples += p.root.TSDB().JobStats(job).Samples
	}
	if gotSamples != wantSamples {
		res.fail(1, "tsdb holds %d samples, admitted events imply %d", gotSamples, wantSamples)
	}

	var jobs []aggd.JobInfo
	if err := getJSON(p, "/api/jobs", &jobs); err != nil {
		res.fail(1, "GET /api/jobs: %v", err)
		return
	}
	var sum uint64
	ranks := 0
	for _, j := range jobs {
		sum += j.Events
		ranks += j.Ranks
		if want := perJob[j.Job]; j.Events != want {
			res.fail(1, "job %s census %d events, published %d: bleed between jobs", j.Job, j.Events, want)
		}
	}
	if sum != st.IngestEvents {
		res.fail(1, "job censuses sum to %d, root admitted %d", sum, st.IngestEvents)
	}
	res.set("aggd.server.jobs", float64(len(jobs)))
	res.set("aggd.server.ranks", float64(ranks))
}

// get fetches path from the root through the reader's door.
func get(p *pipeline, path string) ([]byte, error) {
	resp, err := p.client.Get(p.queryHop.url() + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	return body, err
}

func getJSON(p *pipeline, path string, into any) error {
	body, err := get(p, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, into)
}

// checkTapeBooks closes the books of a tape workload and compares one
// windowed query per job with the same aggregate computed from the tape.
func checkTapeBooks(res *result, e *tapeEnv) {
	checkBooks(res, e.p)

	// Stepped mean of hwt.user_pct over the last ten ticks rank 0 of each
	// job published whole (fewer in a very short run), in two buckets,
	// against the tape.
	for j, job := range e.p.jobs {
		idx := j * e.sp.ranks
		c := &e.cursors[idx]
		done := c.cycle*c.ticks + int(c.tr.tickOf[c.pos]) // ticks fully published
		step := min(done, 10) / 2
		lo := done - 2*step
		if step == 0 {
			res.fail(1, "job %s: only %d ticks published, nothing to check a range query against", job, done)
			continue
		}
		o := e.p.origins[idx]
		var qr aggd.QueryResponse
		path := fmt.Sprintf("/api/job/%s/query?metric=hwt.user_pct&agg=mean&node=%s&rank=%d&start=%d&end=%d&step=%d",
			job, o.node, o.rank, lo, lo+2*step, step)
		if err := getJSON(e.p, path, &qr); err != nil {
			res.fail(1, "job %s: reference query: %v", job, err)
			continue
		}
		want := tapeMeans(c.tr, e.tp.ticks, lo, step, 2)
		if msg := compareMeans(qr, want); msg != "" {
			res.fail(1, "job %s: range query disagrees with the tape: %s", job, msg)
		}
	}
	res.attempted += uint64(len(e.p.jobs))
}

// tapeMeans computes, per CPU, the mean hwt.user_pct of a replayed rank
// over buckets [lo+i*step, lo+(i+1)*step), i < n, keyed by bucket start —
// summed in publish order, the order the store sums in. Like the store, it
// has no entry for a bucket without samples (a replay's tick 0 has no HWT
// rows: the monitor's first tick only sets the baseline).
func tapeMeans(tr *tapeRank, ticks, lo, step, n int) map[int]map[int]float64 {
	sums, counts := map[int]map[int]float64{}, map[int]map[int]float64{}
	for tick := lo; tick < lo+step*n; tick++ {
		start := lo + (tick-lo)/step*step
		for _, ev := range tr.tick(tick % ticks) {
			if ev.Kind != export.EventHWT {
				continue
			}
			cpu := ev.HWT.CPU
			if sums[cpu] == nil {
				sums[cpu], counts[cpu] = map[int]float64{}, map[int]float64{}
			}
			sums[cpu][start] += ev.HWT.UserPct
			counts[cpu][start]++
		}
	}
	for cpu, s := range sums {
		for start := range s {
			s[start] /= counts[cpu][start]
		}
	}
	return sums
}

func compareMeans(qr aggd.QueryResponse, want map[int]map[int]float64) string {
	if len(qr.Series) != len(want) {
		return fmt.Sprintf("%d series, tape has %d CPUs", len(qr.Series), len(want))
	}
	for _, s := range qr.Series {
		ref := want[s.TID]
		if len(s.Points) != len(ref) {
			return fmt.Sprintf("cpu %d: %d buckets, want %d", s.TID, len(s.Points), len(ref))
		}
		for _, pt := range s.Points {
			v, ok := ref[int(pt.TimeSec)]
			if !ok || math.Abs(pt.Value-v) > 1e-9*math.Max(1, math.Abs(v)) {
				return fmt.Sprintf("cpu %d bucket %v: %v, tape says %v (%v)", s.TID, pt.TimeSec, pt.Value, v, ok)
			}
		}
	}
	return ""
}
