package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"

	"zerosum/internal/aggd"
	"zerosum/internal/tsdb"
)

// Invariant is one named audit over a run's closed books: a pure function
// of the Result (per-tier counters, per-job ground truth and census, the
// root's read API) that reports each violation through fail.
type Invariant struct {
	Name  string
	Check func(res *Result, fail failf)
}

type failf = func(format string, args ...any)

// audit runs invs over res and returns every violation, each named after
// the invariant that found it.
func audit(invs []Invariant, res *Result) (errs []error) {
	for _, inv := range invs {
		inv.Check(res, func(format string, args ...any) {
			errs = append(errs, fmt.Errorf(inv.Name+": "+format, args...))
		})
	}
	return errs
}

// ingestTier is the tier the agents ship to.
func ingestTier(res *Result) (string, aggd.ServerStats) {
	if res.Leaves == 0 {
		return "root", res.Root
	}
	return "leaves", res.Leaf
}

func shipped(a aggd.AgentStats) uint64 { return a.Enqueued - a.RingDrops }

// samplesAdmitted is the store census the root's admitted events imply.
// Each admitted event kind appends a fixed number of samples (LWP 5, HWT 3,
// GPU 1, Mem 2, IO 2), and admission is exactly-once by epoch/seq dedup — so
// the census is per-kind arithmetic no matter how many retries, replays,
// crashes, or front-end restarts the run survived.
func samplesAdmitted(st aggd.ServerStats) uint64 {
	return 5*st.EventsLWP + 3*st.EventsHWT + st.EventsGPU + 2*st.EventsMem + 2*st.EventsIO
}

// bookInvariants hold for every plan, whatever its topology and fleet. The
// per-job ones are where isolation shows: jobs share node names, ranks and
// TIDs on purpose, so any cross-job state sharing breaks some job's book.
// docs/chaos.md carries the invariant × plan matrix.
var bookInvariants = []Invariant{
	{"enqueue accounting", func(res *Result, fail failf) {
		for _, j := range res.Jobs {
			if j.Agent.Enqueued != j.Fed {
				fail("job %s: agents enqueued %d of %d fed events", j.ID, j.Agent.Enqueued, j.Fed)
			}
		}
		if res.Agent.Enqueued != res.Fed {
			fail("fleet: agents enqueued %d of %d fed events", res.Agent.Enqueued, res.Fed)
		}
	}},
	// Every event fed to an agent is accounted as sent, ring-dropped, or
	// send-dropped — across crashes, restarts and failovers.
	{"agent conservation", func(res *Result, fail failf) {
		for _, j := range res.Jobs {
			if a := j.Agent; a.Enqueued != a.RingDrops+a.SendDrops+a.SentEvents {
				fail("job %s: enqueued %d != ring %d + send %d + sent %d",
					j.ID, a.Enqueued, a.RingDrops, a.SendDrops, a.SentEvents)
			}
		}
	}},
	// No tier admitted more than the tier below ever sent it, despite
	// retries of bodies it had already (partially) applied. At the root of a
	// tree, admitted includes skipped: stale-epoch stragglers after an agent
	// re-homed, and batches two leaf incarnations both forwarded.
	{"double count", func(res *Result, fail failf) {
		name, in := ingestTier(res)
		if in.IngestEvents > shipped(res.Agent) {
			fail("%s admitted %d events, agents only shipped %d", name, in.IngestEvents, shipped(res.Agent))
		}
		if rt := res.Root; res.Leaves > 0 && rt.IngestEvents+rt.RollupSkippedEvents > res.Forward.EnqueuedEvents {
			fail("root saw %d events (admitted %d + skipped %d), leaves forwarded at most %d",
				rt.IngestEvents+rt.RollupSkippedEvents, rt.IngestEvents, rt.RollupSkippedEvents, res.Forward.EnqueuedEvents)
		}
	}},
	// At-least-once for acknowledged data: everything a sender counted as
	// acknowledged was admitted (or, at the root, skipped) by its receiver.
	{"lost acknowledged data", func(res *Result, fail failf) {
		name, in := ingestTier(res)
		if res.Agent.SentEvents > in.IngestEvents {
			fail("agents saw %d events acknowledged, %s admitted %d", res.Agent.SentEvents, name, in.IngestEvents)
		}
		if rt := res.Root; res.Leaves > 0 && res.Forward.AckedEvents > rt.IngestEvents+rt.RollupSkippedEvents {
			fail("leaves saw %d events acknowledged, root admitted %d + skipped %d",
				res.Forward.AckedEvents, rt.IngestEvents, rt.RollupSkippedEvents)
		}
	}},
	// Every job has exactly one book at the root, holding no more than its
	// own agents shipped.
	{"job census", func(res *Result, fail failf) {
		for _, j := range res.Jobs {
			if !j.Listed {
				fail("job %s missing from /api/jobs", j.ID)
			} else if j.RootEvents > shipped(j.Agent) {
				fail("job %s: root merged %d events, its agents only shipped %d", j.ID, j.RootEvents, shipped(j.Agent))
			}
		}
		if res.RootJobs != len(res.Jobs) {
			fail("/api/jobs lists %d jobs, the fleet ran %d", res.RootJobs, len(res.Jobs))
		}
	}},
	// The no-bleed identity: an event attributed to two jobs, or to none,
	// cannot balance the root's global admitted-event counter.
	{"cross-job bleed", func(res *Result, fail failf) {
		if res.JobEvents != res.Root.IngestEvents {
			fail("per-job censuses in /api/jobs sum to %d events, root admitted %d", res.JobEvents, res.Root.IngestEvents)
		}
	}},
	{"job metrics", func(res *Result, fail failf) {
		for _, j := range res.Jobs {
			if j.PromEvents != j.RootEvents {
				fail("job %s: zerosum_stream_events_total sums to %d, root admitted %d", j.ID, j.PromEvents, j.RootEvents)
			}
			if j.PromSamples != j.TSDBSamples {
				fail("job %s: zerosum_tsdb_samples_total reports %d, its store holds %d", j.ID, j.PromSamples, j.TSDBSamples)
			}
		}
	}},
	// After the heal the root serves the fault-free world: each job's
	// summary is byte-identical to report.Aggregate of that job's own
	// snapshots, and its heatmap holds exactly its own comm rows.
	{"convergence", func(res *Result, fail failf) {
		for _, j := range res.Jobs {
			servesExactly(res, fail, j.ID, "/summary", j.Want)
			heatmap := aggd.HeatmapResponse{Job: j.ID, Ranks: len(j.Rows), Bytes: make([][]uint64, len(j.Rows))}
			for dst, row := range j.Rows {
				heatmap.Bytes[dst] = make([]uint64, len(j.Rows))
				for src, v := range row {
					heatmap.Bytes[dst][src] = v
				}
			}
			servesExactly(res, fail, j.ID, "/heatmap", heatmap)
		}
	}},
	{"tsdb census", func(res *Result, fail failf) {
		var held uint64
		for _, j := range res.Jobs {
			held += j.TSDBSamples
		}
		if st := res.Root; held != samplesAdmitted(st) {
			fail("store holds %d samples, admitted events imply %d (lwp %d hwt %d gpu %d mem %d io %d)",
				held, samplesAdmitted(st), st.EventsLWP, st.EventsHWT, st.EventsGPU, st.EventsMem, st.EventsIO)
		}
	}},
}

// treeInvariants close the forwarders' books, summed over every leaf
// incarnation, and hold the leaf kills to the failover they must provoke.
var treeInvariants = []Invariant{
	{"forwarder intake", func(res *Result, fail failf) {
		if res.Forward.EnqueuedEvents != res.Leaf.IngestEvents {
			fail("leaves admitted %d events but handed %d to their forwarders", res.Leaf.IngestEvents, res.Forward.EnqueuedEvents)
		}
	}},
	// Every event handed to an incarnation's forwarder ends the run acked
	// or dropped (a killed leaf's buffer counts as dropped), never pending.
	{"forwarder books", func(res *Result, fail failf) {
		fw := res.Forward
		if fw.EnqueuedEvents != fw.AckedEvents+fw.DroppedEvents {
			fail("enqueued %d != acked %d + dropped %d", fw.EnqueuedEvents, fw.AckedEvents, fw.DroppedEvents)
		}
		if fw.PendingEvents != 0 {
			fail("%d events still pending after close", fw.PendingEvents)
		}
	}},
	{"phantom rollup gaps", func(res *Result, fail failf) {
		if res.Root.LostRollups > res.Forward.DroppedRollups {
			fail("root counted %d lost rollups, forwarders only dropped %d", res.Root.LostRollups, res.Forward.DroppedRollups)
		}
	}},
	// A leaf relays: everything it admitted is stored at the root alone.
	{"leaf-stores-nothing", func(res *Result, fail failf) {
		if res.LeafSamples != 0 || res.LeafSeries != 0 {
			fail("leaves store %d samples in %d series; only the root stores", res.LeafSamples, res.LeafSeries)
		}
	}},
	// Agents must fail over on their own, and in time.
	{"failover", func(res *Result, fail failf) {
		if res.KilledOwned && res.Agent.Rehomes == 0 {
			fail("leaves that homed live streams were killed, yet no agent re-homed")
		}
		if res.Wedged != nil {
			fail("wedged: %v", res.Wedged)
		}
	}},
}

// tsdbReadPath: the census must come back out the read path — a raw range
// query over the healed network serves one point per admitted event of its
// metric, and the compressed block dump decodes to the same sample count.
// It costs three requests a job, so the single-job plans carry it.
var tsdbReadPath = Invariant{"tsdb read path", func(res *Result, fail failf) {
	query := func(metric string, admitted uint64) {
		var got uint64
		for _, j := range res.Jobs {
			var qr aggd.QueryResponse
			body, err := res.get("/api/job/" + j.ID + "/query?metric=" + metric)
			if err == nil {
				err = json.Unmarshal(body, &qr)
			}
			if err != nil {
				fail("job %s query %s: %v", j.ID, metric, err)
			}
			for _, sr := range qr.Series {
				got += uint64(len(sr.Points))
			}
		}
		if got != admitted {
			fail("query %s: served %d points, admitted %d events", metric, got, admitted)
		}
	}
	query("lwp.nvctx", res.Root.EventsLWP)
	query("mem.free_kb", res.Root.EventsMem)
	var dumped uint64
	for _, j := range res.Jobs {
		blob, err := res.get("/api/job/" + j.ID + "/tsdb")
		if err != nil {
			fail("job %s dump: %v", j.ID, err)
			continue
		}
		bs, err := tsdb.UnmarshalBlocks(blob)
		if err != nil {
			fail("job %s dump decode: %v", j.ID, err)
			continue
		}
		for _, sr := range bs.Series {
			for _, ch := range sr.Chunks {
				dumped += uint64(ch.Count)
			}
		}
	}
	if dumped != samplesAdmitted(res.Root) {
		fail("dump: blobs carry %d samples, admitted events imply %d", dumped, samplesAdmitted(res.Root))
	}
}}

// jobTSDBCensus holds for fleets whose every event is an LWP sample, which
// appends exactly 5 points to the job's series — so the time-series census
// per job is pure arithmetic, and any cross-job append shifts two jobs'
// counts.
var jobTSDBCensus = Invariant{"job tsdb census", func(res *Result, fail failf) {
	for _, j := range res.Jobs {
		if j.TSDBSamples != 5*j.RootEvents {
			fail("job %s: store holds %d samples, admitted events imply %d", j.ID, j.TSDBSamples, 5*j.RootEvents)
		}
	}
}}

// servesExactly fails unless the root serves job's document at path as
// want, byte for byte, in the indented encoding the server writes.
func servesExactly(res *Result, fail failf, job, path string, want any) {
	body, err := res.get("/api/job/" + job + path)
	if err != nil {
		fail("job %s: %v", job, err)
		return
	}
	var exp bytes.Buffer
	enc := json.NewEncoder(&exp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(want); err != nil {
		fail("job %s: encode: %v", job, err)
	} else if !bytes.Equal(body, exp.Bytes()) {
		fail("job %s: %s diverged from the fault-free world:\nserved %s\nwant   %s", job, path, body, exp.Bytes())
	}
}
