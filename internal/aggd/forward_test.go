package aggd

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// leafFor builds a leaf server forwarding to upstream, with flushes under
// test control (the interval is an hour; tests call Flush explicitly).
func leafFor(upstream string, epoch uint64) *Server {
	return NewServer(ServerConfig{Forward: &ForwardConfig{
		Upstream:      upstream,
		LeafID:        "leaf-under-test",
		Epoch:         epoch,
		FlushInterval: time.Hour,
		MaxRetries:    -1, // fail fast; the tests own the retry story
		BackoffBase:   time.Millisecond,
		MaxBackoff:    2 * time.Millisecond,
		DisableGzip:   true,
	}})
}

// TestForwarderLeafToRoot pushes batches and a snapshot through a real
// leaf -> root hop and audits both ends: the root sees exactly the admitted
// data once, and the leaf's conservation books close after shutdown.
func TestForwarderLeafToRoot(t *testing.T) {
	root := NewServer(ServerConfig{})
	rootTS := httptest.NewServer(root.Handler())
	defer rootTS.Close()

	leaf := leafFor(rootTS.URL, 1)
	applyEncoded(t, leaf, mkBatch(1, 0, 3))
	applyEncoded(t, leaf, mkBatch(1, 1, 2))
	applyEncoded(t, leaf, mkBatch(1, 1, 2)) // dup: admitted nowhere, forwarded nowhere
	applyEncodedSnapshot(t, leaf, &SnapshotMsg{
		Origin:   Origin{Job: "j", Node: "n", Rank: 0},
		Snapshot: testSnapshot(0, "n"),
	})

	if !leaf.Forwarder().Flush() {
		t.Fatal("flush to a healthy root failed")
	}
	rst := root.Stats()
	if rst.RollupFrames != 1 || rst.IngestBatches != 2 || rst.IngestEvents != 5 || rst.IngestSnapshots != 1 {
		t.Fatalf("root after one rollup: %+v", rst)
	}
	if rst.DupBatches != 0 || rst.RollupSkippedEvents != 0 {
		t.Fatalf("root saw replays from a clean leaf: %+v", rst)
	}

	// An empty flush ships nothing — no rollup frame, no burned seq.
	if !leaf.Forwarder().Flush() {
		t.Fatal("empty flush reported failure")
	}
	if rst := root.Stats(); rst.RollupFrames != 1 {
		t.Fatalf("empty flush shipped a rollup: %+v", rst)
	}

	if err := leaf.Close(); err != nil {
		t.Fatal(err)
	}
	fst := leaf.Forwarder().Stats()
	if fst.EnqueuedEvents != 5 || fst.AckedEvents != 5 || fst.DroppedEvents != 0 || fst.PendingEvents != 0 {
		t.Fatalf("leaf forwarder books do not close: %+v", fst)
	}
	if fst.SentRollups != 1 || fst.SentSnapshots != 1 {
		t.Fatalf("leaf shipment counters: %+v", fst)
	}
}

// TestLeafHoldsNoSamples: a leaf is a relay. Every event kind and a
// snapshot pass through it over real sockets into a root; afterwards the
// leaf holds no store, no live views and no read routes, while the root
// holds every sample and the snapshot, and both tiers count the same events.
func TestLeafHoldsNoSamples(t *testing.T) {
	root := NewServer(ServerConfig{})
	rootTS := httptest.NewServer(root.Handler())
	defer rootTS.Close()
	leaf := leafFor(rootTS.URL, 1)
	defer leaf.Close()
	leafTS := httptest.NewServer(leaf.Handler())
	defer leafTS.Close()

	b := sampleBatch()
	var frames [][]byte
	for seq := uint64(0); seq < 3; seq++ {
		b.Seq = seq
		frame, err := EncodeBatchFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	snap, err := EncodeSnapshotFrame(&SnapshotMsg{Origin: b.Origin, Snapshot: testSnapshot(b.Rank, b.Node)})
	if err != nil {
		t.Fatal(err)
	}
	if resp := postFrames(t, leafTS.URL, true, append(frames, snap)...); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("leaf ingest: %s", resp.Status)
	}
	if !leaf.Forwarder().Flush() {
		t.Fatal("flush failed")
	}

	if leaf.TSDB() != nil {
		t.Error("leaf built a time-series store")
	}
	leaf.eachJob(func(name string, js *jobStore) {
		js.eachRank(func(key rankKey, rs *rankState) {
			if rs.views != nil {
				t.Errorf("leaf keeps live views for %s/%s/%d", name, key.node, key.rank)
			}
		})
	})

	ls, rs := leaf.Stats(), root.Stats()
	kinds := func(st ServerStats) [5]uint64 {
		return [5]uint64{st.EventsLWP, st.EventsHWT, st.EventsGPU, st.EventsMem, st.EventsIO}
	}
	if kinds(ls) != [5]uint64{3, 3, 3, 3, 3} || kinds(rs) != kinds(ls) {
		t.Errorf("events by kind: leaf %v, root %v, want 3 of each at both", kinds(ls), kinds(rs))
	}
	want := 5*rs.EventsLWP + 3*rs.EventsHWT + rs.EventsGPU + 2*rs.EventsMem + 2*rs.EventsIO
	if got := root.TSDB().JobStats(b.Job).Samples; got != want {
		t.Errorf("root stores %d samples, admitted events imply %d", got, want)
	}
	if n := root.TSDB().SnapshotCount(b.Job); n != 1 || ls.IngestSnapshots != 1 || rs.IngestSnapshots != 1 {
		t.Errorf("root stores %d snapshots; leaf took %d, root %d; want 1 each", n, ls.IngestSnapshots, rs.IngestSnapshots)
	}

	// The reads are the root's; the leaf keeps its census.
	for _, path := range []string{"summary", "heatmap", "query?metric=lwp.user_pct", "topk?metric=lwp.user_pct", "tsdb"} {
		url := "/api/job/" + b.Job + "/" + path
		for _, c := range []struct {
			base string
			code int
		}{{leafTS.URL, http.StatusNotFound}, {rootTS.URL, http.StatusOK}} {
			resp, err := http.Get(c.base + url)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.code {
				t.Errorf("GET %s%s: %s, want %d", c.base, url, resp.Status, c.code)
			}
		}
	}
	var jobs []JobInfo
	getJSON(t, leafTS.URL+"/api/jobs", &jobs)
	if len(jobs) != 1 || jobs[0].Events != rs.IngestEvents || jobs[0].Ranks != 1 {
		t.Errorf("leaf census %+v, root admitted %d events", jobs, rs.IngestEvents)
	}
}

// TestForwarderDropsBurnSeq checks the failure contract both sides agree
// on: a rollup abandoned after its retries drops its batches (counted, not
// resent — the root may have applied it and lost only the ack), burns its
// sequence number, and the root later books that burned seq as a lost
// rollup. Snapshots, being idempotent, survive the failure and ride the
// next successful flush.
func TestForwarderDropsBurnSeq(t *testing.T) {
	root := NewServer(ServerConfig{})
	var failing atomic.Bool
	failing.Store(true)
	rootTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		root.Handler().ServeHTTP(w, r)
	}))
	defer rootTS.Close()

	leaf := leafFor(rootTS.URL, 1)
	defer leaf.Close()
	applyEncoded(t, leaf, mkBatch(1, 0, 4))
	applyEncodedSnapshot(t, leaf, &SnapshotMsg{
		Origin:   Origin{Job: "j", Node: "n", Rank: 0},
		Snapshot: testSnapshot(0, "n"),
	})

	if leaf.Forwarder().Flush() {
		t.Fatal("flush through the outage reported success")
	}
	fst := leaf.Forwarder().Stats()
	if fst.DroppedEvents != 4 || fst.DroppedRollups != 1 || fst.AckedEvents != 0 {
		t.Fatalf("after failed flush: %+v", fst)
	}

	failing.Store(false)
	applyEncoded(t, leaf, mkBatch(1, 1, 2))
	if !leaf.Forwarder().Flush() {
		t.Fatal("flush after the outage failed")
	}
	fst = leaf.Forwarder().Stats()
	if fst.AckedEvents != 2 || fst.SentSnapshots != 1 {
		t.Fatalf("snapshot did not ride the recovery flush: %+v", fst)
	}
	rst := root.Stats()
	// The recovery rollup carries seq 1; seq 0 died in the outage and shows
	// up at the root as exactly one lost rollup.
	if rst.LostRollups != 1 || rst.RollupFrames != 1 || rst.IngestEvents != 2 || rst.IngestSnapshots != 1 {
		t.Fatalf("root after recovery: %+v", rst)
	}
}

// TestForwarderKillConservation crashes a leaf with data still buffered:
// everything unshipped folds into the dropped counter so the conservation
// invariant survives the crash.
func TestForwarderKillConservation(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused, instantly

	leaf := leafFor(dead.URL, 1)
	applyEncoded(t, leaf, mkBatch(1, 0, 7))
	leaf.Forwarder().Kill()
	fst := leaf.Forwarder().Stats()
	if fst.EnqueuedEvents != 7 || fst.DroppedEvents != 7 || fst.AckedEvents != 0 || fst.PendingEvents != 0 {
		t.Fatalf("killed leaf books do not close: %+v", fst)
	}
	// Idempotent, and Close after Kill stays a no-op.
	leaf.Forwarder().Kill()
	if err := leaf.Close(); err != nil {
		t.Fatal(err)
	}
}

// upstreamTap is a parent aggregator seen from the wire: it records every
// ingest body (inflated) and its Content-Encoding, then answers through
// next, or 204 when next is nil.
type upstreamTap struct {
	*httptest.Server
	next http.Handler

	mu        sync.Mutex
	bodies    [][]byte
	encodings []string
}

func newUpstreamTap(t *testing.T, next http.Handler) *upstreamTap {
	t.Helper()
	u := &upstreamTap{next: next}
	u.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("tap: read body: %v", err)
		}
		body := raw
		if r.Header.Get("Content-Encoding") == "gzip" {
			zr, err := gzip.NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Errorf("tap: %v", err)
				return
			}
			if body, err = io.ReadAll(zr); err != nil {
				t.Errorf("tap: inflate: %v", err)
			}
		}
		u.mu.Lock()
		u.bodies = append(u.bodies, body)
		u.encodings = append(u.encodings, r.Header.Get("Content-Encoding"))
		u.mu.Unlock()
		if u.next == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(raw))
		u.next.ServeHTTP(w, r)
	}))
	t.Cleanup(u.Close)
	return u
}

// rollups decodes every body recorded so far as exactly one rollup frame.
func (u *upstreamTap) rollups(t *testing.T) (frames [][]byte, msgs []*RollupMsg) {
	t.Helper()
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, body := range u.bodies {
		sc := NewFrameScanner(bytes.NewReader(body))
		kind, payload, err := sc.Next()
		if err != nil || kind != FrameRollup || len(payload) != len(body)-FrameHeaderLen {
			t.Fatalf("upstream body is not one rollup frame: kind %d, err %v", kind, err)
		}
		ru, err := DecodeRollupPayload(payload, WireVersion)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, body)
		msgs = append(msgs, ru)
	}
	return frames, msgs
}

// TestForwarderRelayMatchesReencode is the differential check on the relay:
// whatever a leaf admitted from real agents — every event kind, two jobs, a
// snapshot each, gzip on and off — the rollup frame it ships is byte for
// byte what the message-level encoder produces from the decoded rollup. The
// leaf never ran that encoder; it copied the payload bytes it admitted.
func TestForwarderRelayMatchesReencode(t *testing.T) {
	for _, gz := range []bool{true, false} {
		t.Run(fmt.Sprintf("gzip=%v", gz), func(t *testing.T) {
			up := newUpstreamTap(t, nil)
			leaf := NewServer(ServerConfig{Forward: &ForwardConfig{
				Upstream: up.URL, LeafID: "leaf-under-test", Epoch: 3,
				FlushInterval: time.Hour, DisableGzip: !gz,
			}})
			defer leaf.Close()
			leafTS := httptest.NewServer(leaf.Handler())
			defer leafTS.Close()

			var sent uint64
			for rank, job := range []string{"job-a", "job-b"} {
				a, err := NewAgent(AgentConfig{
					URL: leafTS.URL, Job: job, Node: "node-0003", Rank: rank,
					BatchSize: 8, FlushInterval: time.Hour, DisableGzip: !gz,
				})
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 5; round++ {
					for _, ev := range sampleBatch().Events {
						ev.TimeSec += float64(round)
						a.enqueue(ev)
						sent++
					}
				}
				if err := a.PushSnapshot(testSnapshot(rank, "node-0003"), map[int]uint64{1 - rank: 64}); err != nil {
					t.Fatal(err)
				}
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if !leaf.Forwarder().Flush() {
				t.Fatal("flush failed")
			}

			frames, msgs := up.rollups(t)
			if len(frames) != 1 {
				t.Fatalf("leaf shipped %d rollups, want 1", len(frames))
			}
			if want := map[bool]string{true: "gzip", false: ""}[gz]; up.encodings[0] != want {
				t.Fatalf("Content-Encoding %q, want %q", up.encodings[0], want)
			}
			ru := msgs[0]
			var events uint64
			jobs := map[string]bool{}
			for i := range ru.Batches {
				events += uint64(len(ru.Batches[i].Events))
				jobs[ru.Batches[i].Job] = true
			}
			if events != sent || len(jobs) != 2 || len(ru.Snapshots) != 2 {
				t.Fatalf("rollup carries %d events of %d jobs and %d snapshots; two agents sent %d events",
					events, len(jobs), len(ru.Snapshots), sent)
			}
			want, err := AppendRollupFrame(nil, ru)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frames[0], want) {
				t.Fatalf("relayed frame (%d bytes) differs from the re-encoded rollup (%d bytes)", len(frames[0]), len(want))
			}
		})
	}
}

// TestForwarderRelayMidTier feeds a middle-tier aggregator rollups and
// checks what it sends on: every embedded payload it admitted, byte for
// byte and in order, and nothing for the replays — a whole rollup replayed
// under its old sequence number, and an already-admitted batch arriving
// again inside a new rollup.
func TestForwarderRelayMidTier(t *testing.T) {
	up := newUpstreamTap(t, nil)
	mid := leafFor(up.URL, 1)
	defer mid.Close()
	midTS := httptest.NewServer(mid.Handler())
	defer midTS.Close()

	first := &RollupMsg{LeafID: "leaf-below", LeafEpoch: 1, Seq: 0,
		Batches:   []Batch{*sampleBatch(), *mkBatch(1, 0, 3)},
		Snapshots: []SnapshotMsg{{Origin: Origin{Job: "j", Node: "n", Rank: 0}, Snapshot: testSnapshot(0, "n")}},
	}
	second := &RollupMsg{LeafID: "leaf-below", LeafEpoch: 1, Seq: 1,
		Batches: []Batch{*mkBatch(1, 0, 3), *mkBatch(1, 1, 2)}, // seq 0 again: a per-origin duplicate
	}
	var in []*rollupView
	for _, ru := range []*RollupMsg{first, first, second} {
		frame, err := AppendRollupFrame(nil, ru)
		if err != nil {
			t.Fatal(err)
		}
		view := new(rollupView)
		if err := walkRollupPayload(frame[FrameHeaderLen:], view); err != nil {
			t.Fatal(err)
		}
		in = append(in, view)
		resp, err := http.Post(midTS.URL+"/api/ingest", "application/x-zerosum-aggd", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("mid-tier ingest: %s", resp.Status)
		}
	}
	if !mid.Forwarder().Flush() {
		t.Fatal("flush failed")
	}

	frames, _ := up.rollups(t)
	if len(frames) != 1 {
		t.Fatalf("mid-tier shipped %d rollups, want 1", len(frames))
	}
	var out rollupView
	if err := walkRollupPayload(frames[0][FrameHeaderLen:], &out); err != nil {
		t.Fatal(err)
	}
	wantBatches := [][]byte{in[0].batches[0], in[0].batches[1], in[2].batches[1]}
	if len(out.batches) != len(wantBatches) {
		t.Fatalf("forwarded %d batches, want %d", len(out.batches), len(wantBatches))
	}
	for i := range wantBatches {
		if !bytes.Equal(out.batches[i], wantBatches[i]) {
			t.Errorf("forwarded batch %d is not the payload that came in", i)
		}
	}
	if len(out.snaps) != 1 || !bytes.Equal(out.snaps[0], in[0].snaps[0]) {
		t.Errorf("forwarded %d snapshots, want the one body that came in", len(out.snaps))
	}
	fst := mid.Forwarder().Stats()
	if want := uint64(len(sampleBatch().Events) + 3 + 2); fst.EnqueuedEvents != want || fst.AckedEvents != want {
		t.Fatalf("mid-tier books: %+v, want %d events enqueued and acked", fst, want)
	}
	if mst := mid.Stats(); mst.DupRollups != 1 || mst.DupBatches != 1 {
		t.Fatalf("mid-tier dedup: %+v", mst)
	}
}

// TestForwarderOverflowShedsOldest backs the buffer up past MaxBuffered and
// checks the shedding contract — whole batches, oldest first, every shed
// event counted, survivors shipped in admission order — and that the books
// close whichever way the leaf then stops.
func TestForwarderOverflowShedsOldest(t *testing.T) {
	for _, stop := range []string{"close", "kill"} {
		t.Run(stop, func(t *testing.T) {
			up := newUpstreamTap(t, nil)
			leaf := NewServer(ServerConfig{Forward: &ForwardConfig{
				Upstream: up.URL, LeafID: "leaf-under-test", Epoch: 1,
				FlushInterval: time.Hour, MaxBuffered: 10, // EagerEvents clamps to 10, which 4-event batches never sum to
				MaxRetries: -1, DisableGzip: true,
			}})
			for seq := uint64(0); seq < 5; seq++ {
				applyEncoded(t, leaf, mkBatch(1, seq, 4))
			}
			fst := leaf.Forwarder().Stats()
			if fst.EnqueuedEvents != 20 || fst.DroppedEvents != 12 || fst.PendingEvents != 8 {
				t.Fatalf("after overflow: %+v, want 20 enqueued, 12 shed, 8 pending", fst)
			}

			var wantAcked uint64
			if stop == "close" {
				wantAcked = 8
				if err := leaf.Close(); err != nil {
					t.Fatal(err)
				}
				_, msgs := up.rollups(t)
				if len(msgs) != 1 || len(msgs[0].Batches) != 2 ||
					msgs[0].Batches[0].Seq != 3 || msgs[0].Batches[1].Seq != 4 {
					t.Fatalf("survivors upstream: %+v, want batches 3 and 4 in one rollup", msgs)
				}
			} else {
				leaf.Forwarder().Kill()
				if frames, _ := up.rollups(t); len(frames) != 0 {
					t.Fatalf("killed leaf shipped %d rollups", len(frames))
				}
			}
			fst = leaf.Forwarder().Stats()
			if fst.AckedEvents != wantAcked || fst.PendingEvents != 0 ||
				fst.EnqueuedEvents != fst.AckedEvents+fst.DroppedEvents {
				t.Fatalf("books after %s: %+v", stop, fst)
			}
		})
	}
}

// TestForwarderFailedFlushRequeuesSnapshots: a rollup that fails to ship
// puts its snapshot documents back, except where a newer document for the
// same origin arrived while it was in flight.
func TestForwarderFailedFlushRequeuesSnapshots(t *testing.T) {
	arrived := make(chan struct{})
	release := make(chan struct{})
	var failing atomic.Bool
	failing.Store(true)
	up := newUpstreamTap(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			arrived <- struct{}{}
			<-release
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	leaf := leafFor(up.URL, 1)
	defer leaf.Close()

	snap := func(rank int, duration float64) *SnapshotMsg {
		msg := &SnapshotMsg{Origin: Origin{Job: "j", Node: "n", Rank: rank}, Snapshot: testSnapshot(rank, "n")}
		msg.Snapshot.DurationSec = duration
		return msg
	}
	applyEncodedSnapshot(t, leaf, snap(0, 1))
	applyEncodedSnapshot(t, leaf, snap(1, 1))
	flushed := make(chan bool)
	go func() { flushed <- leaf.Forwarder().Flush() }()
	<-arrived
	applyEncodedSnapshot(t, leaf, snap(0, 2)) // rank 0 re-dirtied while the first rollup is in flight
	failing.Store(false)
	release <- struct{}{}
	if <-flushed {
		t.Fatal("flush through the outage reported success")
	}
	if !leaf.Forwarder().Flush() {
		t.Fatal("flush after the outage failed")
	}

	_, msgs := up.rollups(t)
	if len(msgs) != 2 || len(msgs[1].Snapshots) != 2 {
		t.Fatalf("recovery rollup: %+v", msgs)
	}
	for _, msg := range msgs[1].Snapshots {
		if want := map[int]float64{0: 2, 1: 1}[msg.Rank]; msg.Snapshot.DurationSec != want {
			t.Errorf("rank %d rode the recovery rollup with duration %v, want %v", msg.Rank, msg.Snapshot.DurationSec, want)
		}
	}
	if fst := leaf.Forwarder().Stats(); fst.SentSnapshots != 2 || fst.DroppedRollups != 1 {
		t.Fatalf("forwarder books: %+v", fst)
	}
}

// roundTripFunc lets a test stand in for the network.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestForwarderAllocs bounds the relay's allocation: a warm EnqueueBatch
// makes none, and a flush makes the same handful whether it carries four
// batches or four hundred.
func TestForwarderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	f, err := NewForwarder(ForwardConfig{
		Upstream: "http://upstream.invalid", LeafID: "leaf-under-test",
		FlushInterval: time.Hour, EagerEvents: 1 << 30, MaxBuffered: 1 << 30, DisableGzip: true,
		Client: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			_, err := io.Copy(io.Discard, r.Body)
			return &http.Response{StatusCode: http.StatusNoContent, Body: http.NoBody}, err
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame, err := EncodeBatchFrame(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	payload, events := frame[FrameHeaderLen:], len(sampleBatch().Events)
	cycle := func(batches int) func() {
		return func() {
			for i := 0; i < batches; i++ {
				f.EnqueueBatch(payload, events)
			}
			if !f.Flush() {
				t.Error("flush failed")
			}
		}
	}
	// Two cycles at the larger size grow both halves of the double buffer.
	cycle(400)()
	cycle(400)()
	few := testing.AllocsPerRun(20, cycle(4))
	many := testing.AllocsPerRun(20, cycle(400))
	if many != few {
		t.Errorf("a flush of 400 batches allocates %v times, one of 4 batches %v: not O(1)", many, few)
	}
	// 101 enqueues fit the buffers those flushes left behind.
	if avg := testing.AllocsPerRun(100, func() { f.EnqueueBatch(payload, events) }); avg != 0 {
		t.Errorf("warm EnqueueBatch allocates %v times per call, want 0", avg)
	}
	t.Logf("allocations per flush: %v", few)
}
