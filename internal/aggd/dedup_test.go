package aggd

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"zerosum/internal/export"
)

func mkBatch(epoch, seq uint64, n int) *Batch {
	b := &Batch{Origin: Origin{Job: "j", Node: "n", Rank: 0}, Epoch: epoch, Seq: seq}
	for i := 0; i < n; i++ {
		b.Events = append(b.Events, export.Event{Kind: export.EventHeartbeat, TimeSec: float64(i)})
	}
	return b
}

// applyEncoded applies b the way handleIngest does: decoded from its own
// FrameBatch payload, with that payload alongside for a leaf to relay.
func applyEncoded(t testing.TB, s *Server, b *Batch) bool {
	t.Helper()
	frame, err := EncodeBatchFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[FrameHeaderLen:]
	dec, err := DecodeBatchPayloadInto(payload, new(BatchBuf))
	if err != nil {
		t.Fatal(err)
	}
	return s.applyBatch(dec, payload)
}

// applyEncodedSnapshot is applyEncoded for a snapshot document.
func applyEncodedSnapshot(t testing.TB, s *Server, msg *SnapshotMsg) {
	t.Helper()
	payload, err := encodeSnapshotPayload(msg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshotPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	s.applySnapshot(dec, payload)
}

// TestServerDedupAndRecovery walks the sequence-accounting state machine
// through every admission path: gap, late hole fill (the one path the soak's
// serial sender can never produce), duplicate replay, agent restart into a
// new epoch, and a straggler from the dead epoch.
func TestServerDedupAndRecovery(t *testing.T) {
	srv := NewServer(ServerConfig{})
	apply := func(epoch, seq uint64) { applyEncoded(t, srv, mkBatch(epoch, seq, 2)) }

	apply(1, 0) // first contact
	apply(1, 2) // gap: seq 1 lost-until-proven-otherwise
	st := srv.Stats()
	if st.LostBatches != 1 || st.RecoveredBatches != 0 || st.IngestEvents != 4 {
		t.Fatalf("after gap: %+v", st)
	}

	apply(1, 1) // the missing batch arrives late: a recovery, not a dup
	st = srv.Stats()
	if st.RecoveredBatches != 1 || st.IngestEvents != 6 {
		t.Fatalf("after hole fill: %+v", st)
	}

	apply(1, 2) // retried shipment the server already applied
	st = srv.Stats()
	if st.DupBatches != 1 || st.IngestEvents != 6 {
		t.Fatalf("after replay: %+v", st)
	}

	apply(2, 0) // restarted agent: new epoch, seq restarts — not a replay
	st = srv.Stats()
	if st.DupBatches != 1 || st.IngestEvents != 8 {
		t.Fatalf("after epoch restart: %+v", st)
	}

	apply(1, 3) // straggler from the dead incarnation must not merge
	st = srv.Stats()
	if st.DupBatches != 2 || st.IngestEvents != 8 {
		t.Fatalf("after old-epoch straggler: %+v", st)
	}
}

// TestServerIngestPartialBody checks the resync contract end to end: a body
// holding [good frame, bad frame, good frame] applies both healthy frames,
// counts the damage, merges nothing from the bad frame, and still returns
// 400 so the sender retries (the retry dedups as a replay rather than
// double-counting). A well-formed frame stamped with a foreign wire version
// is damage exactly like a failed checksum.
func TestServerIngestPartialBody(t *testing.T) {
	frame := func(seq uint64, n int) []byte {
		f, err := EncodeBatchFrame(mkBatch(1, seq, n))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f0, f1, mid := frame(0, 3), frame(1, 3), frame(2, 5)
	flipped := append([]byte(nil), mid...)
	flipped[len(flipped)-1] ^= 0xff
	for name, bad := range map[string][]byte{
		"checksum":       flipped,
		"version-2":      stampVersion(mid, 2),
		"version-3":      stampVersion(mid, 3),
		"version-4":      []byte(legacyV4Frame),
		"version-future": stampVersion(mid, WireVersion+1),
	} {
		t.Run(name, func(t *testing.T) {
			srv := NewServer(ServerConfig{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			if resp := postFrames(t, ts.URL, false, f0, bad, f1); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("partial body status = %d, want 400", resp.StatusCode)
			}
			st := srv.Stats()
			if st.IngestEvents != 6 || st.IngestBatches != 2 || st.CorruptFrames != 1 || st.IngestErrors != 1 {
				t.Fatalf("partial apply: %+v", st)
			}

			// The sender retries the whole body verbatim: the two healthy
			// frames dedup, the bad one is counted again, nothing
			// double-merges.
			postFrames(t, ts.URL, false, f0, bad, f1)
			st = srv.Stats()
			if st.IngestEvents != 6 || st.DupBatches != 2 || st.CorruptFrames != 2 {
				t.Fatalf("after verbatim retry: %+v", st)
			}
		})
	}
}

// TestFrameScannerResync verifies the scanner steps over garbage runs and
// checksum failures, reporting each corruption exactly once with the byte
// span it discarded, and keeps returning the healthy frames around them.
func TestFrameScannerResync(t *testing.T) {
	f0, err := EncodeBatchFrame(mkBatch(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	f1, err := EncodeBatchFrame(mkBatch(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), f0...)
	flipped[len(flipped)-1] ^= 0x01

	garbage := []byte("##noise##")
	stream := append(append(append(append([]byte(nil), garbage...), f0...), flipped...), f1...)
	sc := NewFrameScanner(bytes.NewReader(stream))

	var frames int
	var corrupt []*CorruptFrameError
	for {
		_, payload, err := sc.Next()
		if err == nil {
			frames++
			if b, err := DecodeBatchPayloadInto(payload, new(BatchBuf)); err != nil || b.Job != "j" {
				t.Fatalf("healthy frame decode: %v", err)
			}
			continue
		}
		if errors.Is(err, io.EOF) {
			break
		}
		var ce *CorruptFrameError
		if !errors.As(err, &ce) {
			t.Fatalf("terminal scanner error: %v", err)
		}
		corrupt = append(corrupt, ce)
	}
	if frames != 2 {
		t.Fatalf("scanner recovered %d healthy frames, want 2", frames)
	}
	if len(corrupt) != 2 {
		t.Fatalf("scanner reported %d corruption events, want 2: %v", len(corrupt), corrupt)
	}
	if corrupt[0].Skipped != len(garbage) {
		t.Fatalf("garbage run skipped %d bytes, want %d", corrupt[0].Skipped, len(garbage))
	}
	if corrupt[1].Skipped != len(flipped) {
		t.Fatalf("checksum failure skipped %d bytes, want frame span %d", corrupt[1].Skipped, len(flipped))
	}
}

// TestAgentKillConservation: a killed agent abandons its ring and in-flight
// work but its books still balance — every enqueued event is accounted a
// drop or a delivery, with nothing in between.
func TestAgentKillConservation(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()

	agent, err := NewAgent(AgentConfig{
		URL: url, Job: "j", Node: "n", Rank: 0,
		RingCap: 32, BatchSize: 32, FlushInterval: time.Hour,
		MaxRetries: -1, BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stream export.Stream
	agent.Attach(&stream)
	const n = 100
	for i := 0; i < n; i++ {
		stream.Publish(export.Event{Kind: export.EventHeartbeat, TimeSec: float64(i)})
	}
	agent.Kill()
	st := agent.Stats()
	if st.Enqueued != n {
		t.Fatalf("enqueued %d, want %d", st.Enqueued, n)
	}
	if st.RingDrops+st.SendDrops+st.SentEvents != n {
		t.Fatalf("conservation broken: ring %d + send %d + sent %d != %d",
			st.RingDrops, st.SendDrops, st.SentEvents, n)
	}
	// Kill is idempotent and a second call must not double-count the ring.
	agent.Kill()
	if st2 := agent.Stats(); st2.RingDrops+st2.SendDrops+st2.SentEvents != n {
		t.Fatalf("second Kill broke conservation: %+v", st2)
	}
}

// TestAgentCloseCancelsBackoff: Close during a retry backoff must not wait
// the backoff out — the sleeping sender wakes, takes exactly one last shot,
// and gives up. With multi-second backoffs configured, Close returning
// quickly proves the timer was interrupted. Checked through either owner
// of a shipper.
func TestAgentCloseCancelsBackoff(t *testing.T) {
	for _, o := range shipOwners {
		t.Run(o.name, func(t *testing.T) {
			url, attempts := unavailable(t)
			own := o.start(t, url, 8, 10*time.Second, false)
			own.send()
			// Let the sender hit the 503 and enter its first 10s backoff window.
			waitFor(t, "first send attempt", func() bool { return own.books().retries >= 1 })

			start := time.Now()
			own.close()
			if d := time.Since(start); d > 3*time.Second {
				t.Fatalf("Close took %v — backoff was not cancelled", d)
			}
			if n := attempts.Load(); n != 2 {
				t.Fatalf("%d attempts reached the aggregator, want the first and one final", n)
			}
			if b := own.books(); b.dropped != 4 || b.delivered != 0 {
				t.Fatalf("events not accounted after cancelled backoff: %+v", b)
			}
		})
	}
}
