package aggd

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"zerosum/internal/sim"
)

// shipper posts frames to an aggregator's ingest endpoint for an Agent or a
// Forwarder: gzip, retry with doubling jittered backoff, and the two ways a
// shutdown cuts that schedule short. Its owner stops it exactly once.
type shipper struct {
	client      *http.Client
	maxRetries  int
	backoffBase time.Duration
	maxBackoff  time.Duration
	gzip        bool

	// done closes when the owner shuts down; killed is set first when the
	// shutdown is a crash (no further attempt) rather than a close (one last
	// immediate attempt).
	done   chan struct{}
	killed atomic.Bool

	retries atomic.Uint64

	// jitterMu guards rng: post runs on the owner's sender goroutine but also
	// on whichever goroutine calls PushSnapshot or Flush.
	jitterMu sync.Mutex
	rng      *sim.RNG //zerosum:guardedby jitterMu
}

var errKilled = errors.New("aggd: shipper killed before its first attempt")

var gzipEncoders = sync.Pool{New: func() any { return new(gzipEncoder) }}

// newShipper applies the retry defaults AgentConfig and ForwardConfig
// document. The jitter is seeded from the owner's identity (the strings,
// xored with salt) so replaying a run replays the same delays; the values
// only need to differ across owners, not be unpredictable.
func newShipper(client *http.Client, maxRetries int, backoffBase, maxBackoff time.Duration,
	disableGzip bool, salt uint64, identity ...string) *shipper {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	if maxRetries < 0 {
		maxRetries = 0
	} else if maxRetries == 0 {
		maxRetries = 3
	}
	if backoffBase <= 0 {
		backoffBase = 50 * time.Millisecond
	}
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	h := fnv.New64a()
	for _, s := range identity {
		_, _ = io.WriteString(h, s) // hash.Hash Write never fails
	}
	return &shipper{
		client:      client,
		maxRetries:  maxRetries,
		backoffBase: backoffBase,
		maxBackoff:  maxBackoff,
		gzip:        !disableGzip,
		done:        make(chan struct{}),
		rng:         sim.NewRNG(h.Sum64() ^ salt),
	}
}

// stop ends every current and future backoff wait. With kill set no
// further attempt is made either.
func (s *shipper) stop(kill bool) {
	if kill {
		s.killed.Store(true)
	}
	close(s.done)
}

// post sends one frame to url's ingest endpoint, retrying a failed attempt
// up to maxRetries times. With gzip on, the compressed body is built in
// *gz, which keeps the grown buffer for the caller's next post.
func (s *shipper) post(url string, frame []byte, gz *[]byte) error {
	body, encoding := frame, ""
	if s.gzip {
		// Pooled: an encoder's hash tables are too large to allocate per
		// shipment, and reusing them costs nothing (see gzipEncoder). It
		// goes back before the first attempt, so a shipment waiting on a
		// slow or absent aggregator holds no encoder.
		z := gzipEncoders.Get().(*gzipEncoder)
		*gz = z.encode((*gz)[:0], frame)
		gzipEncoders.Put(z)
		body, encoding = *gz, "gzip"
	}
	backoff := s.backoffBase
	maxRetries := s.maxRetries
	lastErr := errKilled
	for attempt := 0; ; attempt++ {
		if s.killed.Load() {
			return lastErr
		}
		if lastErr = s.attempt(url, body, encoding); lastErr == nil {
			return nil
		}
		if attempt >= maxRetries {
			return lastErr
		}
		s.retries.Add(1)
		if !s.wait(&backoff) && maxRetries > attempt+1 {
			// Closing: the frame rides one final immediate attempt so a
			// graceful shutdown still flushes through a transient error,
			// then the retry loop ends.
			maxRetries = attempt + 1
		}
	}
}

// attempt makes one ingest POST to url.
func (s *shipper) attempt(url string, body []byte, encoding string) error {
	req, err := http.NewRequest(http.MethodPost, url+"/api/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-zerosum-aggd")
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	// Drain so the transport can reuse the connection; a failed drain only
	// costs keep-alive, never data.
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		return nil
	}
	return fmt.Errorf("aggd: aggregator returned %s", resp.Status)
}

// wait sleeps the jittered *backoff and doubles it toward maxBackoff for
// the next call. The sleep is stoppable: a shutting-down owner must not
// block behind the full delay. It reports false when the shipper was
// stopped instead of the delay elapsing.
//
//zerosum:wallclock retry backoff waits on real network latency, not sampled time
func (s *shipper) wait(backoff *time.Duration) bool {
	timer := time.NewTimer(s.jitter(*backoff))
	defer timer.Stop()
	*backoff = min(*backoff*2, s.maxBackoff)
	select {
	case <-timer.C:
		return true
	case <-s.done:
		return false
	}
}

// jitter spreads a backoff delay uniformly across [d/2, d), so a fleet
// knocked offline by one aggregator hiccup does not reconnect in lockstep.
func (s *shipper) jitter(d time.Duration) time.Duration {
	s.jitterMu.Lock()
	v := s.rng.Float64()
	s.jitterMu.Unlock()
	return d/2 + time.Duration(v*float64(d/2))
}
