package aggd

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"zerosum/internal/core"
	"zerosum/internal/export"
)

// fuzzSeedFrames builds a representative set of well-formed frames plus a
// few near-miss mutations so the fuzzer starts inside the interesting part
// of the input space instead of hammering the magic check.
func fuzzSeedFrames(t testing.TB) map[string][]byte {
	batch := &Batch{
		Origin: Origin{Job: "fuzz", Node: "n00", Rank: 3},
		Epoch:  2,
		Seq:    7,
		Events: []export.Event{
			{Kind: export.EventHeartbeat, TimeSec: 1.5},
			{Kind: export.EventLWP, TimeSec: 2, LWP: &export.LWPSample{TID: 41, Kind: "Main", State: 'R', UserPct: 80, SysPct: 5, VCtx: 3, MinFlt: 9, CPU: 2}},
			{Kind: export.EventHWT, TimeSec: 2, HWT: &export.HWTSample{CPU: 1, IdlePct: 60, SysPct: 10, UserPct: 30}},
			{Kind: export.EventGPU, TimeSec: 2, GPU: &export.GPUSample{GPU: 0, Metric: "Device Busy %", Value: 42.5}},
			{Kind: export.EventMem, TimeSec: 3, Mem: &export.MemSample{TotalKB: 1 << 20, FreeKB: 1 << 18, ProcRSSKB: 1 << 16}},
			{Kind: export.EventIO, TimeSec: 3, IO: &export.IOSample{RChar: 100, WChar: 200, ReadBytes: 50}},
		},
	}
	bf, err := EncodeBatchFrame(batch)
	if err != nil {
		t.Fatalf("seed batch: %v", err)
	}
	sf, err := EncodeSnapshotFrame(&SnapshotMsg{
		Origin: Origin{Job: "fuzz", Node: "n00", Rank: 3},
		Snapshot: core.Snapshot{
			Rank: 3, Size: 4, Hostname: "n00", Samples: 10,
			LWPs: []core.ThreadSummary{{TID: 41, Label: "Main", Kind: core.KindMain, UTimePct: 80}},
			HWTs: []core.HWTSummary{{CPU: 0, IdlePct: 50, UserPct: 40, SysPct: 10}},
		},
		CommRow: map[int]uint64{0: 1024, 2: 4096},
	})
	if err != nil {
		t.Fatalf("seed snapshot: %v", err)
	}

	truncated := append([]byte(nil), bf[:len(bf)-3]...)
	flipped := append([]byte(nil), bf...)
	flipped[len(flipped)/2] ^= 0x40
	withGarbage := append([]byte("torn-write-residue"), sf...)
	backToBack := append(append([]byte(nil), bf...), sf...)

	// Interleaved multi-job body: a second job whose batch collides with
	// the first on node, rank, epoch, seq and TID — only the job name
	// differs — framed back to back with it, the way a shared leaf socket
	// carries several jobs' streams in one request.
	peer := *batch
	peer.Origin.Job = "fuzz2"
	pf, err := EncodeBatchFrame(&peer)
	if err != nil {
		t.Fatalf("seed peer batch: %v", err)
	}
	multiJob := append(append(append([]byte(nil), bf...), pf...), sf...)

	// Foreign wire versions — must be rejected, must not panic: genuine
	// v2 and v4 frames, a healthy frame stamped with the next version, and a
	// CRC-valid foreign frame the scanner has to resync through to reach
	// the healthy frames after it.
	future := stampVersion(bf, WireVersion+1)
	foreignBetween := append(append(append([]byte(nil), bf...), stampVersion(pf, 3)...), sf...)

	// Hostile batch payloads with valid CRCs, so they reach the batch decoder:
	// a dictionary count the bytes cannot hold, a non-minimal varint, and an
	// LWP TID delta that overflows int32.
	truncDict := payloadFrame(t, []byte{2, 1, 'x'}) // claims 2 strings, carries 1
	nonMinimal := payloadFrame(t, []byte{0x80, 0x00})
	overflow := payloadFrame(t, append([]byte{
		1, 0, // dict: one empty string
		21, 21, // jobRef, nodeRef: the dict's first entry, past the 21-entry table
		0,    // rank
		1, 0, // epoch, seq
		1,      // one event
		tagLWP, // LWP event
		0,      // time delta 0
	}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)) // tid zigzag delta = max uint64

	return map[string][]byte{
		"seed_batch":           bf,
		"seed_snapshot":        sf,
		"seed_truncated":       truncated,
		"seed_bitflip":         flipped,
		"seed_garbage_prefix":  withGarbage,
		"seed_back_to_back":    backToBack,
		"seed_multi_job":       multiJob,
		"seed_legacy_v2":       []byte(legacyV2Frame),
		"seed_legacy_v4":       []byte(legacyV4Frame),
		"seed_future_version":  future,
		"seed_foreign_between": foreignBetween,
		"seed_trunc_dict":      truncDict,
		"seed_non_minimal":     nonMinimal,
		"seed_overflow":        overflow,
	}
}

// payloadFrame wraps a raw batch payload in a valid frame (correct magic,
// version, length, CRC), so fuzz seeds exercise the payload decoder rather
// than dying at the checksum.
func payloadFrame(t testing.TB, payload []byte) []byte {
	dst := appendHeader(nil, FrameBatch)
	dst = append(dst, payload...)
	frame, err := finishFrame(dst)
	if err != nil {
		t.Fatalf("seed frame: %v", err)
	}
	return frame
}

// TestWireFuzzSeedsReachTheirChecks: each hand-built hostile seed fails the
// check it was written for, not an earlier one, and the genuine version-4
// frame is resynced past whole, as foreign.
func TestWireFuzzSeedsReachTheirChecks(t *testing.T) {
	seeds := fuzzSeedFrames(t)
	for name, want := range map[string]string{
		"seed_trunc_dict":  "truncated payload",
		"seed_non_minimal": "non-minimal varint",
		"seed_overflow":    "TID -9223372036854775808 overflows int32",
	} {
		_, payload := readOneFrame(t, seeds[name])
		if _, err := DecodeBatchPayloadInto(payload, new(BatchBuf)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want an error containing %q", name, err, want)
		}
	}
	var ce *CorruptFrameError
	if _, _, err := NewFrameScanner(bytes.NewReader(seeds["seed_legacy_v4"])).Next(); !errors.As(err, &ce) || ce.Skipped != len(legacyV4Frame) {
		t.Errorf("version-4 frame: %v, want all %d bytes skipped as foreign", err, len(legacyV4Frame))
	}
}

// FuzzWireDecode throws arbitrary bytes at the resyncing scanner and the
// payload decoders. Invariants: no panic, the scanner always terminates and
// accounts for every byte it passes, and any batch frame that decodes
// cleanly re-encodes to the exact bytes that were consumed (wire canonical
// form).
func FuzzWireDecode(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte("ZSAG"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The scanner must make progress through any input: each Next call
		// either yields a frame, reports a corrupt run, or ends the stream.
		// off tracks where in data the scanner stands.
		sc := NewFrameScanner(bytes.NewReader(data))
		off := 0
		for steps := 0; ; steps++ {
			if steps > len(data)+16 {
				t.Fatalf("scanner failed to terminate on %d-byte input", len(data))
			}
			kind, payload, err := sc.Next()
			if err == nil {
				consumed := data[off : off+FrameHeaderLen+len(payload)]
				off += len(consumed)
				switch kind {
				case FrameBatch:
					if b, err := DecodeBatchPayloadInto(payload, new(BatchBuf)); err == nil {
						re, err := EncodeBatchFrame(b)
						if err != nil {
							t.Fatalf("decoded batch failed to re-encode: %v", err)
						}
						if !bytes.Equal(re, consumed) {
							t.Fatalf("batch round-trip not canonical:\n in  %x\n out %x", consumed, re)
						}
					}
				case FrameSnapshot:
					_, _ = DecodeSnapshotPayload(payload)
				}
				continue
			}
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			var ce *CorruptFrameError
			if errors.As(err, &ce) {
				if ce.Skipped == 0 {
					t.Fatalf("corrupt-frame report skipped zero bytes: %v", ce)
				}
				off += ce.Skipped
				continue
			}
			break // terminal transport error (truncation mid-frame)
		}
	})
}
