package aggd

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/report"
)

// multiJobBatch builds one job's batch whose identifying tuple — node,
// rank, epoch, sequence, and every LWP TID — is identical across jobs.
// Only the job name and the sample magnitudes differ, so any state keyed
// without the job dimension merges two jobs' streams.
func multiJobBatch(t *testing.T, job string, seq uint64, scale float64) []byte {
	t.Helper()
	b := &Batch{
		Origin: Origin{Job: job, Node: "n00", Rank: 0},
		Epoch:  1,
		Seq:    seq,
		Events: []export.Event{
			{Kind: export.EventLWP, TimeSec: float64(seq), LWP: &export.LWPSample{
				TimeSec: float64(seq), TID: 1000, Kind: "Main", State: 'R',
				UserPct: 50 * scale, SysPct: 5, VCtx: uint64(10 * scale), NVCtx: uint64(4 * scale), CPU: 0,
			}},
			{Kind: export.EventHWT, TimeSec: float64(seq), HWT: &export.HWTSample{
				TimeSec: float64(seq), CPU: 0, IdlePct: 10, SysPct: 10, UserPct: 80 * scale,
			}},
		},
	}
	frame, err := EncodeBatchFrame(b)
	if err != nil {
		t.Fatalf("job %s batch: %v", job, err)
	}
	return frame
}

// multiJobSnapshot is testSnapshot with the magnitudes scaled per job while
// hostname, rank and TIDs stay identical across jobs.
func multiJobSnapshot(job string, pct float64) core.Snapshot {
	snap := testSnapshot(0, "n00")
	snap.Comm = job
	for i := range snap.LWPs {
		snap.LWPs[i].UTimePct = pct
	}
	return snap
}

// TestMultiJobIsolation posts two jobs whose streams collide on every
// non-job identity dimension — same node, rank 0, epoch 1, the same
// sequence numbers, the same TIDs — into one aggregator, across both
// content encodings, and asserts nothing
// merges: per-job event and snapshot censuses, batch dedup state, served
// summaries and heatmaps, TSDB sample counts, and the Prometheus export
// must each stay per-job exact.
func TestMultiJobIsolation(t *testing.T) {
	cases := []struct {
		name string
		gzip bool
	}{
		{"current-version", false},
		{"gzip-interleaved", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(ServerConfig{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			const batches = 3
			// Interleave the two jobs' colliding batches in single bodies —
			// the FrameScanner walks job-alpha and job-beta frames back to
			// back, the way a leaf sees them arrive from a shared socket.
			for seq := uint64(1); seq <= batches; seq++ {
				a := multiJobBatch(t, "alpha", seq, 1.0)
				b := multiJobBatch(t, "beta", seq, 0.5)
				if resp := postFrames(t, ts.URL, tc.gzip, a, b); resp.StatusCode != http.StatusNoContent {
					t.Fatalf("seq %d: %s", seq, resp.Status)
				}
			}
			// Replaying alpha's last batch must be deduped for alpha without
			// consuming beta's identical (epoch, seq) slot.
			replay := multiJobBatch(t, "alpha", batches, 1.0)
			if resp := postFrames(t, ts.URL, tc.gzip, replay); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("replay: %s", resp.Status)
			}
			if st := srv.Stats(); st.DupBatches != 1 || st.IngestEvents != 2*2*batches {
				t.Fatalf("dedup books: %d dups, %d events; want 1 dup, %d events", st.DupBatches, st.IngestEvents, 2*2*batches)
			}

			// Snapshots: identical tuples, different magnitudes per job.
			snaps := map[string]core.Snapshot{
				"alpha": multiJobSnapshot("alpha", 90),
				"beta":  multiJobSnapshot("beta", 30),
			}
			for job, snap := range snaps {
				frame, err := EncodeSnapshotFrame(&SnapshotMsg{
					Origin:   Origin{Job: job, Node: "n00", Rank: 0},
					Snapshot: snap,
					CommRow:  map[int]uint64{0: 0},
				})
				if err != nil {
					t.Fatal(err)
				}
				if resp := postFrames(t, ts.URL, tc.gzip, frame); resp.StatusCode != http.StatusNoContent {
					t.Fatalf("%s snapshot: %s", job, resp.Status)
				}
			}

			// Census: each job holds exactly its own stream and snapshot.
			var jobs []JobInfo
			getJSON(t, ts.URL+"/api/jobs", &jobs)
			if len(jobs) != 2 {
				t.Fatalf("jobs: %+v", jobs)
			}
			for _, ji := range jobs {
				if ji.Events != 2*batches || ji.Snapshots != 1 || ji.Ranks != 1 || ji.Nodes != 1 {
					t.Fatalf("job %s census bled: %+v", ji.Job, ji)
				}
			}

			// Summaries: byte-for-byte the single-job aggregate of each
			// job's own snapshot, and distinguishable from the other's.
			for job, snap := range snaps {
				want, err := report.Aggregate([]core.Snapshot{snap}, core.EvalThresholds{})
				if err != nil {
					t.Fatal(err)
				}
				var got report.JobSummary
				getJSON(t, ts.URL+"/api/job/"+job+"/summary", &got)
				assertSummariesEqual(t, want, &got)
			}

			// TSDB: per-job sample census is the per-kind arithmetic of that
			// job's own admitted events (LWP 5 appends, HWT 3).
			for _, job := range []string{"alpha", "beta"} {
				if js := srv.TSDB().JobStats(job); js.Samples != (5+3)*batches {
					t.Fatalf("job %s tsdb bled: %d samples, want %d", job, js.Samples, (5+3)*batches)
				}
			}

			// Prometheus: the colliding stream exports under both job labels
			// with per-job values, not one merged series.
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			wantSeries := map[string]bool{
				fmt.Sprintf(`zerosum_stream_events_total{job="alpha",node="n00",rank="0"} %d`, 2*batches): false,
				fmt.Sprintf(`zerosum_stream_events_total{job="beta",node="n00",rank="0"} %d`, 2*batches):  false,
			}
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if _, ok := wantSeries[sc.Text()]; ok {
					wantSeries[sc.Text()] = true
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			for series, seen := range wantSeries {
				if !seen {
					t.Fatalf("metrics missing per-job series %q", series)
				}
			}
		})
	}
}

// TestMultiJobQueryIsolation pins the TSDB read path: range queries for a
// metric both jobs emitted under identical series identities serve only
// the querying job's points.
func TestMultiJobQueryIsolation(t *testing.T) {
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const batches = 4
	for seq := uint64(1); seq <= batches; seq++ {
		a := multiJobBatch(t, "alpha", seq, 1.0)
		b := multiJobBatch(t, "beta", seq, 0.5)
		if resp := postFrames(t, ts.URL, false, a, b); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("seq %d: %s", seq, resp.Status)
		}
	}
	for job, wantNVCtx := range map[string]float64{"alpha": 4, "beta": 2} {
		var qr QueryResponse
		getJSON(t, ts.URL+"/api/job/"+job+"/query?metric=lwp.nvctx", &qr)
		var points int
		for _, sr := range qr.Series {
			points += len(sr.Points)
			for _, p := range sr.Points {
				if p.Value != wantNVCtx {
					t.Fatalf("job %s served foreign point %+v (want nvctx %v)", job, p, wantNVCtx)
				}
			}
		}
		if points != batches {
			t.Fatalf("job %s served %d points, admitted %d LWP events", job, points, batches)
		}
	}
	if body, err := http.Get(ts.URL + "/api/job/gamma/query?metric=lwp.nvctx"); err != nil {
		t.Fatal(err)
	} else {
		body.Body.Close()
		if body.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job served a query: %s", body.Status)
		}
	}
}
