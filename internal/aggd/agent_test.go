package aggd

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"zerosum/internal/export"
)

func lwpEvent(t float64, tid int, nvctx uint64) export.Event {
	return export.Event{Kind: export.EventLWP, TimeSec: t, LWP: &export.LWPSample{
		TimeSec: t, TID: tid, Kind: "Main", State: 'R', UserPct: 90, NVCtx: nvctx,
	}}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// dropped is every event the agent lost, to ring eviction or failed sends.
func dropped(a *Agent) uint64 {
	st := a.Stats()
	return st.RingDrops + st.SendDrops
}

func TestAgentShipsToServer(t *testing.T) {
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	agent, err := NewAgent(AgentConfig{
		URL: ts.URL, Job: "j1", Node: "node-a", Rank: 0,
		BatchSize: 8, FlushInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stream export.Stream
	agent.Attach(&stream)
	for i := 0; i < 100; i++ {
		stream.Publish(lwpEvent(float64(i), 100, uint64(i)))
	}
	waitFor(t, "events to arrive", func() bool { return srv.ingestEvents.Load() == 100 })
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	st := agent.Stats()
	if st.Enqueued != 100 || st.SentEvents != 100 || dropped(agent) != 0 {
		t.Fatalf("stats: %+v dropped=%d", st, dropped(agent))
	}
	if srv.ingestBatches.Load() == 0 || srv.lostBatches.Load() != 0 {
		t.Fatalf("server saw %d batches, %d lost", srv.ingestBatches.Load(), srv.lostBatches.Load())
	}
}

// TestAgentBackpressure is the acceptance check: with the aggregator down,
// the publish hot path never blocks — the bounded ring sheds the oldest
// events and the drops are counted.
func TestAgentBackpressure(t *testing.T) {
	// A listener that was closed: connections are refused immediately.
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()

	agent, err := NewAgent(AgentConfig{
		URL: url, Job: "j1", Node: "node-a", Rank: 0,
		RingCap: 64, BatchSize: 64,
		FlushInterval: time.Hour, // only explicit kicks would flush
		MaxRetries:    -1,        // fail fast; keep Close quick
		BackoffBase:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stream export.Stream
	agent.Attach(&stream)

	const n = 10_000
	start := time.Now()
	for i := 0; i < n; i++ {
		stream.Publish(lwpEvent(float64(i), 100, uint64(i)))
	}
	elapsed := time.Since(start)
	// The hot path is a ring insert; even with the aggregator dead and the
	// ring overflowing, 10k publishes must complete promptly (on the order
	// of microseconds each, generously bounded here for slow CI).
	if elapsed > 2*time.Second {
		t.Fatalf("publishing %d events with a dead aggregator took %v", n, elapsed)
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	st := agent.Stats()
	if st.Enqueued != n {
		t.Fatalf("enqueued %d, want %d", st.Enqueued, n)
	}
	if dropped(agent) == 0 {
		t.Fatal("no drops counted with a dead aggregator")
	}
	if st.RingDrops == 0 {
		t.Fatalf("ring never shed load: %+v", st)
	}
	if st.SentEvents != 0 {
		t.Fatalf("sent %d events to a dead aggregator", st.SentEvents)
	}
	// Conservation: after Close every enqueued event was dropped either by
	// the ring (oldest-first eviction) or after exhausting send retries.
	if st.RingDrops+st.SendDrops != n {
		t.Fatalf("ring %d + send %d drops != %d enqueued", st.RingDrops, st.SendDrops, n)
	}
}

// TestAgentRetriesThenSucceeds: a shipment answered 503 twice is retried
// and lands on the third attempt, through either owner of a shipper.
func TestAgentRetriesThenSucceeds(t *testing.T) {
	for _, o := range shipOwners {
		t.Run(o.name, func(t *testing.T) {
			var fails atomic.Int32
			fails.Store(2)
			srv := NewServer(ServerConfig{})
			handler := srv.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if fails.Add(-1) >= 0 {
					http.Error(w, "try later", http.StatusServiceUnavailable)
					return
				}
				handler.ServeHTTP(w, r)
			}))
			defer ts.Close()

			own := o.start(t, ts.URL, 5, time.Millisecond, false)
			own.send()
			waitFor(t, "retried shipment to land", func() bool { return srv.ingestEvents.Load() == 4 })
			own.close()
			if b := own.books(); b != (shipBooks{retries: 2, delivered: 4}) {
				t.Fatalf("books: %+v, want 2 retries and 4 events delivered", b)
			}
		})
	}
}

func TestAgentCloseFlushes(t *testing.T) {
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	agent, err := NewAgent(AgentConfig{
		URL: ts.URL, Job: "j1", Node: "node-a", Rank: 0,
		BatchSize: 1024, FlushInterval: time.Hour, // nothing flushes until Close
	})
	if err != nil {
		t.Fatal(err)
	}
	var stream export.Stream
	agent.Attach(&stream)
	for i := 0; i < 10; i++ {
		stream.Publish(lwpEvent(float64(i), 1, 0))
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	if srv.ingestEvents.Load() != 10 {
		t.Fatalf("server saw %d events after Close, want 10", srv.ingestEvents.Load())
	}
	// Publishing after Close only counts drops.
	stream.Publish(lwpEvent(11, 1, 0))
	if dropped(agent) == 0 {
		t.Fatal("post-Close publish not counted as dropped")
	}
}

// TestAgentCutsLiveStreamAtBatchSize pins how the sender cuts shipments
// when events keep arriving while one is in flight: the remainder is left
// to fill up to BatchSize rather than shipped at whatever size one round
// trip let it reach, while the tail of a burst — nothing more arrived
// behind it — still ships at once. The handler holds each shipment until
// the test releases it, so "during the round trip" is exact, not timed.
func TestAgentCutsLiveStreamAtBatchSize(t *testing.T) {
	const batch = 8
	srv := NewServer(ServerConfig{})
	handler := srv.Handler()
	arrived := make(chan struct{}, 16)
	release := make(chan struct{}, 16)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-release
		handler.ServeHTTP(w, r)
	}))
	defer ts.Close()

	agent, err := NewAgent(AgentConfig{
		URL: ts.URL, Job: "j1", Node: "node-a", Rank: 0,
		BatchSize: batch, FlushInterval: time.Hour, // only kicks flush
	})
	if err != nil {
		t.Fatal(err)
	}
	var stream export.Stream
	agent.Attach(&stream)
	next := 0
	publish := func(n int) {
		for ; n > 0; n-- {
			stream.Publish(lwpEvent(float64(next), 100, uint64(next)))
			next++
		}
	}
	shipped := func(batches, events uint64) {
		t.Helper()
		waitFor(t, "the shipment to be admitted", func() bool { return srv.ingestBatches.Load() == batches })
		if got := srv.ingestEvents.Load(); got != events {
			t.Fatalf("after %d shipments the server holds %d events, want %d", batches, got, events)
		}
	}

	// A live stream: 3 events arrive while the first shipment is in flight.
	// They must not go out as a 3-event shipment when it returns...
	publish(batch)
	<-arrived
	publish(3)
	release <- struct{}{}
	shipped(1, batch)
	// ...but as part of the full batch the next 5 complete.
	publish(batch - 3)
	<-arrived
	// A burst: a batch and a half arrive during that shipment, then nothing.
	// The full batch ships; nothing arrived behind it, so the tail follows.
	publish(batch + batch/2)
	release <- struct{}{}
	shipped(2, 2*batch)
	<-arrived
	release <- struct{}{}
	shipped(3, 3*batch)
	<-arrived
	release <- struct{}{}
	shipped(4, 3*batch+batch/2)

	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	if st := agent.Stats(); st.SentBatches != 4 || st.SentEvents != uint64(next) || dropped(agent) != 0 {
		t.Fatalf("stats: %+v dropped=%d, want 4 batches carrying all %d events", st, dropped(agent), next)
	}
}
