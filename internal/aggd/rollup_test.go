package aggd

import (
	"bytes"
	"encoding/binary"
	"net/http/httptest"
	"reflect"
	"testing"

	"zerosum/internal/export"
)

func mkRollupBatch(node string, rank int, epoch, seq uint64, n int) Batch {
	b := Batch{Origin: Origin{Job: "jr", Node: node, Rank: rank}, Epoch: epoch, Seq: seq}
	for i := 0; i < n; i++ {
		b.Events = append(b.Events, export.Event{Kind: export.EventHeartbeat, TimeSec: float64(i)})
	}
	return b
}

func mkRollup(leaf string, epoch, seq uint64, batches ...Batch) []byte {
	ru := &RollupMsg{LeafID: leaf, LeafEpoch: epoch, Seq: seq, Batches: batches}
	frame, err := AppendRollupFrame(nil, ru)
	if err != nil {
		panic(err)
	}
	return frame
}

func TestRollupRoundTrip(t *testing.T) {
	ru := &RollupMsg{
		LeafID:    "leaf-a:9101",
		LeafEpoch: 7,
		Seq:       42,
		Batches: []Batch{
			mkRollupBatch("n0", 0, 3, 11, 4),
			mkRollupBatch("n1", 1, 1, 0, 0), // empty batch must survive too
		},
		Snapshots: []SnapshotMsg{{
			Origin:   Origin{Job: "jr", Node: "n0", Rank: 0},
			Snapshot: testSnapshot(0, "n0"),
			CommRow:  map[int]uint64{1: 4096},
		}},
	}
	frame, err := AppendRollupFrame(nil, ru)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload := readOneFrame(t, frame)
	if kind != FrameRollup {
		t.Fatalf("frame kind %d, want rollup", kind)
	}
	got, err := DecodeRollupPayload(payload, WireVersion)
	if err != nil {
		t.Fatal(err)
	}
	if got.LeafID != ru.LeafID || got.LeafEpoch != ru.LeafEpoch || got.Seq != ru.Seq {
		t.Fatalf("rollup header %q/%d/%d, want %q/%d/%d",
			got.LeafID, got.LeafEpoch, got.Seq, ru.LeafID, ru.LeafEpoch, ru.Seq)
	}
	if len(got.Batches) != len(ru.Batches) || len(got.Snapshots) != len(ru.Snapshots) {
		t.Fatalf("decoded %d batches, %d snapshots; want %d, %d",
			len(got.Batches), len(got.Snapshots), len(ru.Batches), len(ru.Snapshots))
	}
	for i := range ru.Batches {
		w, g := ru.Batches[i], got.Batches[i]
		if g.Origin != w.Origin || g.Epoch != w.Epoch || g.Seq != w.Seq || len(g.Events) != len(w.Events) {
			t.Fatalf("batch %d: got %+v (%d events), want %+v (%d events)",
				i, g.Origin, len(g.Events), w.Origin, len(w.Events))
		}
	}
	if !reflect.DeepEqual(got.Snapshots[0].CommRow, ru.Snapshots[0].CommRow) {
		t.Fatalf("snapshot comm row %v, want %v", got.Snapshots[0].CommRow, ru.Snapshots[0].CommRow)
	}
	// Canonicality: re-encoding the decoded message reproduces the frame
	// byte for byte, the property the fuzz corpus pins.
	again, err := AppendRollupFrame(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, frame) {
		t.Fatal("re-encoded rollup frame differs from the original")
	}
}

func TestRollupWalkRejects(t *testing.T) {
	frame := mkRollup("leaf", 1, 0, mkRollupBatch("n", 0, 1, 0, 2))
	payload := append([]byte(nil), frame[FrameHeaderLen:]...)
	var view rollupView

	for _, ver := range []uint8{3, WireVersion + 1} {
		if _, err := DecodeRollupPayload(payload, ver); err == nil {
			t.Fatalf("rollup payload of wire version %d accepted", ver)
		}
	}
	if err := walkRollupPayload(payload, &view); err != nil {
		t.Fatalf("pristine payload rejected: %v", err)
	}
	// Every truncation point must fail the structural walk — never panic,
	// never accept a partial structure.
	for cut := 0; cut < len(payload); cut++ {
		if err := walkRollupPayload(payload[:cut], &view); err == nil {
			t.Fatalf("payload truncated to %d/%d bytes accepted", cut, len(payload))
		}
	}
	// Trailing garbage after a well-formed structure is damage, not slack.
	if err := walkRollupPayload(append(append([]byte(nil), payload...), 0xEE), &view); err == nil {
		t.Fatal("trailing byte after rollup accepted")
	}
	// A hostile batch count larger than the remaining bytes could ever hold
	// must be rejected before anything is sized from it. nBatches sits after
	// leafID (2+4 bytes here) + epoch + seq.
	hostile := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(hostile[2+4+8+8:], 0xFFFFFFFF)
	if err := walkRollupPayload(hostile, &view); err == nil {
		t.Fatal("hostile batch count accepted")
	}
	// Same for the snapshot count, which trails the embedded batches.
	hostile = append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(hostile[len(hostile)-4:], 0xFFFFFFFF)
	if err := walkRollupPayload(hostile, &view); err == nil {
		t.Fatal("hostile snapshot count accepted")
	}
}

// TestRollupScannerMixedStream feeds one body holding two batch frames, a
// rollup frame, a foreign-version (v2) frame, inter-frame garbage, and a
// corrupted rollup through the resyncing scanner: every healthy frame comes
// out, the damage is reported, and the stream never desynchronizes.
func TestRollupScannerMixedStream(t *testing.T) {
	b2 := Batch{Origin: Origin{Job: "jr", Node: "n2", Rank: 2}, Epoch: 1, Seq: 0}
	for i := 0; i < 3; i++ {
		b2.Events = append(b2.Events, lwpEvent(float64(i), 100+i, uint64(i)))
	}
	f2, err := EncodeBatchFrame(&b2)
	if err != nil {
		t.Fatal(err)
	}
	b3 := mkRollupBatch("n3", 3, 1, 0, 2)
	f3, err := EncodeBatchFrame(&b3)
	if err != nil {
		t.Fatal(err)
	}
	ru := mkRollup("leaf", 1, 0, mkRollupBatch("n0", 0, 1, 0, 2))
	bad := append([]byte(nil), ru...)
	bad[len(bad)-3] ^= 0x40 // payload damage: CRC must catch it

	var stream bytes.Buffer
	stream.Write(f2)
	stream.WriteString(legacyV2Frame)
	stream.Write([]byte("!!!noise!!!"))
	stream.Write(ru)
	stream.Write(bad)
	stream.Write(f3)

	sc := NewFrameScanner(&stream)
	var kinds []FrameKind
	corrupt := 0
	for {
		kind, payload, err := sc.Next()
		if err != nil {
			if _, ok := err.(*CorruptFrameError); ok {
				corrupt++
				continue
			}
			break
		}
		kinds = append(kinds, kind)
		if kind == FrameRollup {
			var view rollupView
			if err := walkRollupPayload(payload, &view); err != nil {
				t.Fatalf("healthy rollup failed the walk: %v", err)
			}
			if view.leafID != "leaf" || len(view.batches) != 1 {
				t.Fatalf("rollup view %q with %d batches", view.leafID, len(view.batches))
			}
		}
	}
	want := []FrameKind{FrameBatch, FrameRollup, FrameBatch}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("scanner yielded kinds %v, want %v", kinds, want)
	}
	if corrupt == 0 {
		t.Fatal("corrupted rollup frame went unreported")
	}
}

// TestServerRollupDedup drives the per-leaf (epoch, seq) state machine and
// the per-origin dedup of embedded batches through every admission path.
func TestServerRollupDedup(t *testing.T) {
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(frame []byte, wantCode int) {
		t.Helper()
		resp := postFrames(t, ts.URL, false, frame)
		if resp.StatusCode != wantCode {
			t.Fatalf("ingest returned %d, want %d", resp.StatusCode, wantCode)
		}
	}

	first := mkRollup("L", 1, 0, mkRollupBatch("n", 0, 1, 0, 2))
	post(first, 204)
	st := srv.Stats()
	if st.RollupFrames != 1 || st.IngestBatches != 1 || st.IngestEvents != 2 {
		t.Fatalf("after first rollup: %+v", st)
	}

	post(first, 204) // whole-rollup replay: a retry racing a lost ack
	st = srv.Stats()
	if st.DupRollups != 1 || st.IngestEvents != 2 || st.DupBatches != 0 {
		t.Fatalf("after rollup replay: %+v", st)
	}

	// Seq jumps 0 -> 2: the leaf burned seq 1 on an abandoned shipment.
	post(mkRollup("L", 1, 2, mkRollupBatch("n", 0, 1, 1, 2)), 204)
	st = srv.Stats()
	if st.LostRollups != 1 || st.IngestEvents != 4 {
		t.Fatalf("after rollup gap: %+v", st)
	}

	// The missing seq 1 straggles in, replaying batch (1,0) the leaf already
	// forwarded under seq 0: the rollup recovers, the embedded batch dedups,
	// and its events land in RollupSkippedEvents — the leak audit's bucket.
	post(mkRollup("L", 1, 1, mkRollupBatch("n", 0, 1, 0, 2)), 204)
	st = srv.Stats()
	if st.RecoveredRollups != 1 || st.DupBatches != 1 || st.RollupSkippedEvents != 2 || st.IngestEvents != 4 {
		t.Fatalf("after hole fill with replayed batch: %+v", st)
	}

	post(mkRollup("L", 0, 5, mkRollupBatch("n", 0, 1, 9, 2)), 204) // dead-epoch straggler
	st = srv.Stats()
	if st.DupRollups != 2 || st.IngestEvents != 4 {
		t.Fatalf("after old-epoch rollup: %+v", st)
	}

	// The leaf restarts: higher epoch, seq restarts at 0 — not a replay.
	post(mkRollup("L", 2, 0, mkRollupBatch("n", 0, 2, 0, 2)), 204)
	st = srv.Stats()
	if st.IngestEvents != 6 || st.DupRollups != 2 {
		t.Fatalf("after leaf epoch restart: %+v", st)
	}

	// A second leaf has independent sequence state.
	post(mkRollup("M", 1, 0, mkRollupBatch("m", 1, 1, 0, 3)), 204)
	st = srv.Stats()
	if st.IngestEvents != 9 || st.DupRollups != 2 || st.LostRollups != 1 {
		t.Fatalf("after second leaf: %+v", st)
	}
	if st.RollupFrames != 7 {
		t.Fatalf("rollup frames %d, want 7", st.RollupFrames)
	}
}

// TestServerRollupBadEmbeddedBatch hand-frames a rollup whose structure
// walks clean but whose one embedded batch payload cannot decode: the
// request fails (the leaf's shipment is answered 400) without the frame
// burning more than its own seq, and the server survives.
func TestServerRollupBadEmbeddedBatch(t *testing.T) {
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dst := appendHeader(nil, FrameRollup)
	dst, err := appendString(dst, "L")
	if err != nil {
		t.Fatal(err)
	}
	dst = binary.LittleEndian.AppendUint64(dst, 1) // leafEpoch
	dst = binary.LittleEndian.AppendUint64(dst, 0) // seq
	dst = binary.LittleEndian.AppendUint32(dst, 1) // nBatches
	garbage := bytes.Repeat([]byte{0xFF}, 40)      // big enough to pass the size heuristics
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(garbage)))
	dst = append(dst, garbage...)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // nSnaps
	frame, err := finishFrame(dst)
	if err != nil {
		t.Fatal(err)
	}

	resp := postFrames(t, ts.URL, false, frame)
	if resp.StatusCode != 400 {
		t.Fatalf("undecodable embedded batch returned %d, want 400", resp.StatusCode)
	}
	st := srv.Stats()
	if st.RollupFrames != 1 || st.IngestBatches != 0 || st.CorruptFrames != 1 {
		t.Fatalf("after bad embedded batch: %+v", st)
	}
}
