package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/export"
	"zerosum/internal/proc"
	"zerosum/internal/tsdb"
)

// A replay re-runs inputs captured from the workload through one layer's
// public functions alone, on one goroutine, so the layer's own cost per
// unit stands apart from everything that runs beside it in the pipeline.

// replayer repeats each replay's input for this long.
type replayer time.Duration

// timeIt calls f until the replayer's time has passed and returns the mean
// wall time and heap allocations of one call.
func (rp replayer) timeIt(f func()) (ns, allocs float64) {
	replayFor := time.Duration(rp)
	f() // first call pays for growth of reused buffers
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for time.Since(t0) < replayFor {
		f()
		n++
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// tapeBatches cuts the first ticks of every tape rank into batches of size
// events, the shipments an agent with that BatchSize makes.
func tapeBatches(tp *tape, size int) []aggd.Batch {
	var out []aggd.Batch
	for r := range tp.ranks {
		evs := tp.ranks[r].events
		var seq uint64
		for lo := 0; lo+size <= len(evs) && seq < 8; lo += size {
			b := aggd.Batch{Origin: aggd.Origin{Job: "replay", Node: tp.node, Rank: r}, Epoch: 1, Seq: seq}
			for i, ev := range evs[lo : lo+size] {
				ev.TimeSec = float64(tp.ranks[r].tickOf[lo+i])
				b.Events = append(b.Events, ev)
			}
			out = append(out, b)
			seq++
		}
	}
	return out
}

// replayLayers measures the aggregation path's layers on the tape: stream
// and agent hand-off, batch codec, gzip, rollup codec, and TSDB append and
// query.
func replayLayers(res *result, tp *tape, sp *spec, rp replayer) {
	size := sp.batch()
	batches := tapeBatches(tp, size)
	events := float64(len(batches) * size)

	// export: Publish into a counting sink.
	var sunk int
	sink := &export.Stream{}
	sink.Subscribe(func(export.Event) { sunk++ })
	c := cursor{tr: &tp.ranks[0], ticks: tp.ticks}
	ns, _ := rp.timeIt(func() { c.publish(sink, size) })
	res.set("export.publish_ns_per_event", ns/float64(size))

	// aggd.agent: the same with an agent attached, its ring large and its
	// flush far enough away that the sender goroutine stays asleep.
	const ring = 1 << 16
	if agent, err := aggd.NewAgent(aggd.AgentConfig{URL: "http://unused.bench", Job: "replay",
		RingCap: ring, BatchSize: ring, FlushInterval: time.Hour}); err == nil {
		s := &export.Stream{}
		agent.Attach(s)
		t0 := time.Now()
		c.publish(s, ring-1)
		res.set("aggd.agent.enqueue_ns_per_event", float64(time.Since(t0))/(ring-1))
		agent.Kill()
	}

	// aggd.wire: frame, deflate, inflate, scan+decode.
	var frame []byte
	var raw, packed int
	ns, _ = rp.timeIt(func() {
		raw = 0
		for i := range batches {
			frame, _ = aggd.AppendBatchFrame(frame[:0], &batches[i])
			raw += len(frame)
		}
	})
	res.set("aggd.wire.encode_ns_per_event", ns/events)
	res.set("aggd.wire.raw_bytes_per_event", float64(raw)/events)

	frames := make([][]byte, len(batches))
	for i := range batches {
		frames[i], _ = aggd.AppendBatchFrame(nil, &batches[i])
	}
	zw := gzip.NewWriter(io.Discard)
	zipped := make([]bytes.Buffer, len(frames))
	ns, _ = rp.timeIt(func() {
		packed = 0
		for i, f := range frames {
			zipped[i].Reset()
			zw.Reset(&zipped[i])
			_, _ = zw.Write(f)
			_ = zw.Close()
			packed += zipped[i].Len()
		}
	})
	res.set("aggd.wire.gzip_ns_per_event", ns/events)
	res.set("aggd.wire.gzip_ratio", ratio(float64(packed), float64(raw)))

	var zr gzip.Reader
	var inflated bytes.Buffer
	ns, _ = rp.timeIt(func() {
		for i := range zipped {
			if zr.Reset(bytes.NewReader(zipped[i].Bytes())) == nil {
				inflated.Reset()
				_, _ = inflated.ReadFrom(&zr)
			}
		}
	})
	res.set("aggd.wire.gunzip_ns_per_event", ns/events)

	sc := aggd.NewFrameScanner(nil)
	var bb aggd.BatchBuf
	decoded := 0
	ns, _ = rp.timeIt(func() {
		for _, f := range frames {
			sc.Reset(bytes.NewReader(f))
			if _, payload, err := sc.Next(); err == nil {
				if b, err := aggd.DecodeBatchPayloadInto(payload, &bb); err == nil {
					decoded += len(b.Events)
				}
			}
		}
	})
	res.set("aggd.wire.decode_ns_per_event", ns/events)
	if decoded == 0 {
		res.fail(1, "replay: no batch frame decoded")
	}

	// aggd.rollup: what a leaf ships once EagerEvents (4096) are pending.
	if sp.leaves > 0 {
		ru := &aggd.RollupMsg{LeafID: "leaf-0.bench", LeafEpoch: 1, Batches: batches[:min(len(batches), 4096/size)]}
		ruEvents := float64(len(ru.Batches) * size)
		var ruFrame []byte
		ns, _ = rp.timeIt(func() { ruFrame, _ = aggd.AppendRollupFrame(ruFrame[:0], ru) })
		res.set("aggd.rollup.encode_ns_per_event", ns/ruEvents)
		ns, allocs := rp.timeIt(func() { _, _ = aggd.DecodeRollupPayload(ruFrame[aggd.FrameHeaderLen:], aggd.WireVersion) })
		res.set("aggd.rollup.decode_ns_per_event", ns/ruEvents)
		res.set("aggd.rollup.allocs_per_frame", allocs)
	}

	replayTSDB(res, tp, rp)
}

// replayTSDB appends the tape to a fresh store the way aggd's ingest does —
// one BeginBatch/End per rank and tick, series handles resolved once and
// cached — for long enough that blocks seal and retention evicts, then times
// the range query the reader asks, without HTTP.
func replayTSDB(res *result, tp *tape, rp replayer) {
	st := tsdb.NewStore(storeOptions(time.Second))
	metrics := [numKinds][]string{
		export.EventLWP: {"lwp.user_pct", "lwp.sys_pct", "lwp.vctx", "lwp.nvctx", "lwp.stalled"},
		export.EventHWT: {"hwt.idle_pct", "hwt.sys_pct", "hwt.user_pct"},
		export.EventGPU: {""}, // named by the sample
		export.EventMem: {"mem.free_kb", "mem.rss_kb"},
		export.EventIO:  {"io.read_bytes", "io.write_bytes"},
	}
	// A sample is (series handles, values); handles are cached per tape
	// event, the way the server caches them per (rank, TID).
	type handles [5]*tsdb.Series
	cache := make([][]handles, tapeRanks)
	for r := range cache {
		cache[r] = make([]handles, len(tp.ranks[r].events))
	}
	resolve := func(ba *tsdb.BatchAppender, rank int, ev export.Event) (h handles) {
		key := tsdb.SeriesKey{Node: tp.node, Rank: rank}
		names := metrics[ev.Kind]
		switch ev.Kind {
		case export.EventLWP:
			key.TID = ev.LWP.TID
		case export.EventHWT:
			key.TID = ev.HWT.CPU
		case export.EventGPU:
			key.TID, names = ev.GPU.GPU, []string{"gpu." + ev.GPU.Metric}
		}
		for m, name := range names {
			key.Metric = name
			h[m] = ba.Resolve(key)
		}
		return h
	}
	values := func(ev export.Event) [5]float64 {
		switch ev.Kind {
		case export.EventLWP:
			return [5]float64{ev.LWP.UserPct, ev.LWP.SysPct, float64(ev.LWP.VCtx), float64(ev.LWP.NVCtx)}
		case export.EventHWT:
			return [5]float64{ev.HWT.IdlePct, ev.HWT.SysPct, ev.HWT.UserPct}
		case export.EventGPU:
			return [5]float64{ev.GPU.Value}
		case export.EventMem:
			return [5]float64{float64(ev.Mem.FreeKB), float64(ev.Mem.ProcRSSKB)}
		}
		return [5]float64{float64(ev.IO.ReadBytes), float64(ev.IO.WriteBytes)}
	}
	var samples float64
	appendTick := func(rank, tick int) {
		tr := &tp.ranks[rank]
		lo := tr.starts[tick%tp.ticks]
		ba := st.BeginBatch("replay", tp.node, rank)
		t := tsdb.TimeToNanos(float64(tick))
		for i, ev := range tr.tick(tick % tp.ticks) {
			h := &cache[rank][lo+i]
			if h[0] == nil {
				*h = resolve(&ba, rank, ev)
			}
			vals := values(ev)
			for m := 0; m < int(kindSamples[ev.Kind]); m++ {
				ba.Append(h[m], t, vals[m])
			}
			samples += float64(kindSamples[ev.Kind])
		}
		ba.End()
	}
	// One pass over the tape resolves every series; eleven more fill the
	// retention window and keep it turning over.
	tick := 0
	for ; tick < tp.ticks; tick++ {
		for r := range tp.ranks {
			appendTick(r, tick)
		}
	}
	samples = 0
	t0 := time.Now()
	for ; tick < 12*tp.ticks; tick++ {
		for r := range tp.ranks {
			appendTick(r, tick)
		}
	}
	res.set("tsdb.append_ns_per_sample", ratio(float64(time.Since(t0)), samples))

	opts := tsdb.QueryOpts{Metric: "hwt.user_pct", Rank: -1, TID: -1,
		Start: tsdb.TimeToNanos(float64(tick - 10)), End: tsdb.TimeToNanos(float64(tick)), Step: tsdb.TimeToNanos(5)}
	points := 0
	ns, _ := rp.timeIt(func() {
		series, _ := st.Query("replay", opts)
		points = 0
		for _, s := range series {
			points += len(s.Points)
		}
	})
	res.set("tsdb.points_per_query", float64(points))
	res.set("tsdb.query_ns_per_point", ratio(ns, float64(points)))
}

// procCapture is the /proc traffic of one tick, read again from outside the
// monitor: which files, how many bytes, and how long reads and parses take.
type procCapture struct {
	files, bytes int
	readNS       float64 // per file
	parseNS      float64 // per file
	publishNS    float64 // per event, into a counting sink
	realfsNS     float64 // per file, this process's own /proc, for reference
}

// captureProc re-reads, through the same BufFS the monitor uses, every file
// one of rank rk's ticks reads, then re-parses the captured bytes. It runs
// inside the simulation (the tasks must be alive) but outside any tick span.
func captureProc(rk *sampleRank, rp replayer) (pc procCapture) {
	fs := proc.AdaptFS(rk.rc.K.ProcFS(rk.rc.Proc.PID))
	pid := rk.rc.Proc.PID
	tids, err := fs.TasksInto(pid, nil)
	if err != nil {
		return pc
	}
	var stats, statuses [][]byte
	var stat, meminfo, pstatus, pio []byte
	read := func() {
		pc.files, pc.bytes = 0, 0
		note := func(b []byte) { pc.files++; pc.bytes += len(b) }
		for i, tid := range tids {
			rd, err := fs.OpenTask(pid, tid)
			if err != nil {
				continue
			}
			for len(stats) <= i {
				stats, statuses = append(stats, nil), append(statuses, nil)
			}
			stats[i], _ = rd.StatInto(stats[i])
			statuses[i], _ = rd.StatusInto(statuses[i])
			note(stats[i])
			note(statuses[i])
			_ = rd.Close()
		}
		stat, _ = fs.StatInto(stat)
		meminfo, _ = fs.MeminfoInto(meminfo)
		pstatus, _ = fs.ProcessStatusInto(pid, pstatus)
		pio, _ = fs.ProcessIOInto(pid, pio)
		note(stat)
		note(meminfo)
		note(pstatus)
		note(pio)
	}
	ns, _ := rp.timeIt(read)
	pc.readNS = ratio(ns, float64(pc.files))

	var ts proc.TaskStat
	var tst proc.TaskStatus
	var st proc.Stat
	var mi proc.Meminfo
	var tio proc.TaskIO
	ns, _ = rp.timeIt(func() {
		for i := range stats {
			_ = proc.ParseTaskStatInto(stats[i], &ts)
			_ = proc.ParseTaskStatusInto(statuses[i], &tst)
		}
		_ = proc.ParseStatInto(stat, &st)
		_ = proc.ParseMeminfoInto(meminfo, &mi)
		_ = proc.ParseTaskStatusInto(pstatus, &tst)
		_ = proc.ParseTaskIOInto(pio, &tio)
	})
	pc.parseNS = ratio(ns, float64(pc.files))

	var sunk int
	sink := &export.Stream{}
	sink.Subscribe(func(export.Event) { sunk++ })
	ev := export.Event{Kind: export.EventMem, Mem: &export.MemSample{}}
	pc.publishNS, _ = rp.timeIt(func() { sink.Publish(ev) })

	// The same reads against this process's own /proc, fd-cached: what the
	// simulated numbers would be on a live host.
	real := proc.NewRealFS()
	defer real.Close()
	self := real.SelfPID()
	if rtids, err := proc.AdaptFS(real).TasksInto(self, nil); err == nil && len(rtids) > 0 {
		rfs := proc.AdaptFS(real)
		rd, err := rfs.OpenTask(self, rtids[0])
		if err == nil {
			var a, b, c, d []byte
			ns, _ := rp.timeIt(func() {
				a, _ = rd.StatInto(a)
				b, _ = rd.StatusInto(b)
				c, _ = rfs.StatInto(c)
				d, _ = rfs.MeminfoInto(d)
			})
			pc.realfsNS = ns / 4
			_ = rd.Close()
		}
	}
	return pc
}

// replaySampler reports the sampling path's layers from what captureProc
// saw during the traced job.
func replaySampler(res *result, job *sampleJob, pc procCapture) {
	res.set("proc.read_ns_per_file", pc.readNS)
	res.set("proc.parse_ns_per_file", pc.parseNS)
	res.set("proc.realfs_read_ns_per_file", pc.realfsNS)
	res.set("proc.files_per_tick", float64(pc.files))
	res.set("proc.bytes_per_tick", float64(pc.bytes))
	res.set("export.publish_ns_per_event", pc.publishNS)
	res.setPct("core.allocs_per_tick", job.mallocs, 0.5)
	perTick := res.values["core.events_per_tick"]
	self := res.values["tick_us_p50"]*1e3 - float64(pc.files)*(pc.readNS+pc.parseNS) - perTick*pc.publishNS
	res.set("core.self_ns_per_tick", self)
}

// ledgerRow is one line of the where-the-time-goes table, µs of process CPU
// per event visible at the root.
type ledgerRow struct {
	layer  string
	us     float64
	source string
}

// ledger attributes cpu_us_per_event to layers. Replayed rows are a layer's
// own single-goroutine cost times how often an event passes through it;
// span rows come from the program's own obs stages; the residual is what
// neither explains: net/http and syscalls on both ends of every hop, the
// scheduler, and in sample_node the simulated application itself.
func ledger(res *result, sp *spec) []ledgerRow {
	v := res.values
	perEvent := func(names ...string) (us float64) {
		for _, n := range names {
			us += v[n] / 1e3
		}
		return us
	}
	samplesPerEvent := v["ledger.samples_per_event"]
	var rows []ledgerRow
	add := func(layer string, us float64, source string) {
		if us != 0 {
			rows = append(rows, ledgerRow{layer, us, source})
		}
	}
	if sp.sample {
		perTick := v["core.events_per_tick"]
		add("proc", ratio(v["proc.files_per_tick"]*(v["proc.read_ns_per_file"]+v["proc.parse_ns_per_file"]), perTick)/1e3, "replay")
		add("core", ratio(v["core.self_ns_per_tick"], perTick)/1e3, "tick - replays")
	}
	add("export+aggd.agent", perEvent("aggd.agent.enqueue_ns_per_event"), "replay")
	add("aggd.wire", perEvent("aggd.wire.encode_ns_per_event", "aggd.wire.gzip_ns_per_event",
		"aggd.wire.gunzip_ns_per_event", "aggd.wire.decode_ns_per_event"), "replay")
	add("aggd.rollup", perEvent("aggd.rollup.encode_ns_per_event", "aggd.rollup.decode_ns_per_event"), "replay")
	add("tsdb", v["tsdb.append_ns_per_sample"]*samplesPerEvent*sp.stores()/1e3, "replay")
	add("aggd.server", v["aggd.server.merge_residual_ns_per_event"]/1e3, "ingest spans - replays")
	add("aggd.query", v["ledger.query_us_per_event"], "reader wall time")
	add("go.runtime gc", v["go.gc_cpu_frac"]*v["cpu_us_per_event"], "runtime/metrics gc cpu over the phase")
	total := v["cpu_us_per_event"]
	for _, r := range rows {
		total -= r.us
	}
	rows = append(rows, ledgerRow{"residual", total, "cpu_us_per_event - rows above"})
	return rows
}

func printLedger(res *result) {
	sp := specByName(res.workload)
	fmt.Printf(" ledger: µs of process CPU per root-visible event (traced run, cpu_us_per_event = %.4f)\n", res.values["cpu_us_per_event"])
	for _, r := range ledger(res, sp) {
		fmt.Printf("  %-20s %9.4f  %5.1f%%  %s\n", r.layer, r.us, 100*ratio(r.us, res.values["cpu_us_per_event"]), r.source)
	}
}
