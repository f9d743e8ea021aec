package aggd

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerosum/internal/export"
)

// shipBooks is what the shipper tests read off either owner of a shipper.
type shipBooks struct{ retries, delivered, dropped uint64 }

// shipOwner is an Agent or a Forwarder reduced to what the shipper tests
// drive: send hands it one 4-event shipment, which it posts from its own
// goroutine.
type shipOwner struct {
	send        func()
	books       func() shipBooks
	close, kill func()
}

// shipOwners starts each of the shipper's two callers against url, so one
// test body checks the shipment contract through both.
var shipOwners = []struct {
	name  string
	start func(t *testing.T, url string, maxRetries int, backoffBase time.Duration, disableGzip bool) shipOwner
}{
	{"agent", func(t *testing.T, url string, maxRetries int, backoffBase time.Duration, disableGzip bool) shipOwner {
		a, err := NewAgent(AgentConfig{
			URL: url, Job: "j", Node: "n", BatchSize: 4, FlushInterval: time.Hour,
			MaxRetries: maxRetries, BackoffBase: backoffBase, MaxBackoff: 3 * backoffBase, DisableGzip: disableGzip,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Kill)
		return shipOwner{
			send: func() {
				for i := 0; i < 4; i++ {
					a.enqueue(export.Event{Kind: export.EventHeartbeat, TimeSec: float64(i)})
				}
			},
			books: func() shipBooks {
				st := a.Stats()
				return shipBooks{st.Retries, st.SentEvents, st.SendDrops}
			},
			close: func() { a.Close() },
			kill:  a.Kill,
		}
	}},
	{"forwarder", func(t *testing.T, url string, maxRetries int, backoffBase time.Duration, disableGzip bool) shipOwner {
		f, err := NewForwarder(ForwardConfig{
			Upstream: url, LeafID: "leaf-under-test", EagerEvents: 4, FlushInterval: time.Hour,
			MaxRetries: maxRetries, BackoffBase: backoffBase, MaxBackoff: 3 * backoffBase, DisableGzip: disableGzip,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Kill)
		frame, err := EncodeBatchFrame(mkBatch(1, 0, 4))
		if err != nil {
			t.Fatal(err)
		}
		return shipOwner{
			send: func() { f.EnqueueBatch(frame[FrameHeaderLen:], 4) },
			books: func() shipBooks {
				st := f.Stats()
				return shipBooks{st.Retries, st.AckedEvents, st.DroppedEvents}
			},
			close: func() { f.Close() },
			kill:  f.Kill,
		}
	}},
}

// unavailable is an aggregator that answers every shipment 503 and counts
// the attempts.
func unavailable(t *testing.T) (url string, attempts *atomic.Int32) {
	attempts = new(atomic.Int32)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		attempts.Add(1)
		http.Error(w, "no", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, attempts
}

// TestShipperKillCancelsBackoff: Kill during a retry backoff wakes the
// sleeping sender, which gives up without another attempt; the shipment in
// flight is counted dropped.
func TestShipperKillCancelsBackoff(t *testing.T) {
	for _, o := range shipOwners {
		t.Run(o.name, func(t *testing.T) {
			url, attempts := unavailable(t)
			own := o.start(t, url, 8, 10*time.Second, false)
			own.send()
			waitFor(t, "the first backoff", func() bool { return own.books().retries >= 1 })

			start := time.Now()
			own.kill()
			if d := time.Since(start); d > 3*time.Second {
				t.Fatalf("Kill took %v — backoff was not cancelled", d)
			}
			if n := attempts.Load(); n != 1 {
				t.Fatalf("%d attempts reached the aggregator, want only the one before Kill", n)
			}
			if b := own.books(); b != (shipBooks{retries: 1, dropped: 4}) {
				t.Fatalf("books after Kill: %+v", b)
			}
		})
	}
}

// TestShipperGzipToggle: DisableGzip decides the Content-Encoding of what
// reaches the aggregator, which ingests it either way.
func TestShipperGzipToggle(t *testing.T) {
	for _, o := range shipOwners {
		for _, tc := range []struct {
			name        string
			disableGzip bool
			encoding    string
		}{{"gzip", false, "gzip"}, {"plain", true, ""}} {
			t.Run(o.name+"/"+tc.name, func(t *testing.T) {
				root := NewServer(ServerConfig{})
				up := newUpstreamTap(t, root.Handler())
				own := o.start(t, up.URL, -1, time.Millisecond, tc.disableGzip)
				own.send()
				own.close()
				if got := root.Stats().IngestEvents; got != 4 {
					t.Fatalf("aggregator ingested %d events, want 4", got)
				}
				if len(up.encodings) != 1 || up.encodings[0] != tc.encoding {
					t.Fatalf("Content-Encoding of the shipments: %q, want one %q", up.encodings, tc.encoding)
				}
			})
		}
	}
}

// TestShipperJitterReplays: the jitter sequence is a function of the
// owner's identity — the same identity replays it, another one does not —
// and every delay lands in [d/2, d).
func TestShipperJitterReplays(t *testing.T) {
	const d = 80 * time.Millisecond
	seq := func(salt uint64, identity ...string) (out [8]time.Duration) {
		s := newShipper(nil, 0, 0, 0, false, salt, identity...)
		for i := range out {
			out[i] = s.jitter(d)
			if out[i] < d/2 || out[i] >= d {
				t.Fatalf("jitter(%v) = %v, outside [d/2, d)", d, out[i])
			}
		}
		return out
	}
	base := seq(7, "job", "node")
	if again := seq(7, "job", "node"); again != base {
		t.Fatalf("same identity, different jitter: %v vs %v", base, again)
	}
	if other := seq(8, "job", "node"); other == base {
		t.Fatalf("a different epoch replayed the same jitter: %v", other)
	}
	if other := seq(7, "job", "node-2"); other == base {
		t.Fatalf("a different node replayed the same jitter: %v", other)
	}
}

// TestShipperReleasesEncoderBeforePosting: a post puts its gzip encoder back
// in the pool before the first attempt, so shipments held open by a slow or
// absent aggregator pin none. Posts started one after another and then held
// open together need at most one encoder per P: a P's private pool slot is
// the only place another P's Get cannot find a returned encoder.
func TestShipperReleasesEncoderBeforePosting(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode makes sync.Pool drop entries by design; the pool then reallocates")
	}
	runtime.GC() // twice: empty the pool and its victim cache
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no GC may empty it mid-test
	var made atomic.Int64
	newEncoder := gzipEncoders.New
	gzipEncoders.New = func() any { made.Add(1); return new(gzipEncoder) }
	defer func() { gzipEncoders.New = newEncoder }()

	arrived, release := make(chan struct{}), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		<-release
	}))
	defer srv.Close()
	releaseAll := sync.OnceFunc(func() { close(release) })
	defer releaseAll() // before srv.Close, which waits for the held handlers
	frame, err := EncodeBatchFrame(mkBatch(1, 0, 64))
	if err != nil {
		t.Fatal(err)
	}
	s := newShipper(nil, -1, 0, 0, false, 0, "held-open")
	procs := runtime.GOMAXPROCS(0)
	posts := 2*procs + 2
	errs := make(chan error, posts)
	var wg sync.WaitGroup
	for i := 0; i < posts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var gz []byte
			errs <- s.post(srv.URL, frame, &gz)
		}()
		select {
		case <-arrived: // this post is in its attempt, held open
		case err := <-errs:
			t.Fatalf("post %d ended before the aggregator held it: %v", i, err)
		}
	}
	n := made.Load()
	releaseAll()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n > int64(procs) {
		t.Fatalf("%d posts held open made %d gzip encoders, want <= GOMAXPROCS (%d)", posts, n, procs)
	}
}
