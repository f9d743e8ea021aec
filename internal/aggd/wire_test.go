package aggd

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/topology"
)

func sampleBatch() *Batch {
	return &Batch{
		Origin: Origin{Job: "job-42", Node: "node-0003", Rank: 7},
		Seq:    9,
		Events: []export.Event{
			{Kind: export.EventLWP, TimeSec: 1.5, LWP: &export.LWPSample{
				TimeSec: 1.5, TID: 1234, Kind: "Main, OpenMP", State: 'R',
				UserPct: 97.25, SysPct: 1.5, VCtx: 10, NVCtx: 20000,
				MinFlt: 3, MajFlt: 1, NSwap: 0, CPU: 33,
			}},
			{Kind: export.EventHWT, TimeSec: 1.5, HWT: &export.HWTSample{
				TimeSec: 1.5, CPU: 33, IdlePct: 2.5, SysPct: 0.5, UserPct: 97,
			}},
			{Kind: export.EventGPU, TimeSec: 1.5, GPU: &export.GPUSample{
				TimeSec: 1.5, GPU: 2, Metric: "Device Busy %", Value: 88.5,
			}},
			{Kind: export.EventMem, TimeSec: 2.5, Mem: &export.MemSample{
				TimeSec: 2.5, TotalKB: 1 << 29, FreeKB: 1 << 28,
				AvailKB: 1 << 27, ProcRSSKB: 4096, ProcHWMKB: 8192,
			}},
			{Kind: export.EventIO, TimeSec: 2.5, IO: &export.IOSample{
				TimeSec: 2.5, RChar: 1, WChar: 2, SyscR: 3, SyscW: 4,
				ReadBytes: 5, WriteBytes: 6,
			}},
			{Kind: export.EventHeartbeat, TimeSec: 3.5},
		},
	}
}

// legacyV2Frame is a genuine wire-version-2 batch frame (job "jr", node
// "n02", rank 2, one LWP event in the old fixed-width layout), kept as bytes
// now that nothing encodes that version: a reader must resync past it,
// never parse it.
const legacyV2Frame = "ZSAG\x02\x01q\x00\x00\x00\xc5\xe9\x8c\xa9\x02\x00jr\x03\x00n02\x02\x00\x00\x00" +
	"\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00" +
	"\x01\x00\x00\x00\x00\x00\x00\xf0?\x09\x00\x00\x00\x04\x00MainR\x00\x00\x00\x00\x00\x80Q@" +
	"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
	"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
	"\x00\x00\x00\x00"

// legacyV4Frame is a genuine wire-version-4 batch frame (job "jr", node
// "n02", rank 2, an LWP event of kind "Main" and a "Device Busy %" GPU
// event), kept as bytes from before the static string table: its
// dictionary carries the labels the table now holds, so a reader must
// resync past it, never parse it.
const legacyV4Frame = "ZSAG\x04\x01I\x00\x00\x00\xa2\r\x15\xb8\x04\x02jr\x03n02\x04Main\rDevice Busy %" +
	"\x00\x01\x04\x01\x03\x02\x01\x80\x80\x80\x80\x80\x80\x80\xf0\x7f\x12\x02R\xc0\xa2\x81\x04\x00\x00" +
	"\x00\x00\x00\x00\x02\x03\xff\xff\xff\xff\xff\xff\xff\xef\x7f\x00\x03\xc0\x8a\x81\x02"

// stampVersion returns a copy of frame with its header version byte set to
// ver. The CRC covers only the payload, so the result is still a
// well-formed frame — of a version no reader accepts.
func stampVersion(frame []byte, ver uint8) []byte {
	out := append([]byte(nil), frame...)
	out[4] = ver
	return out
}

// readOneFrame scans the first frame of data, which must be healthy.
func readOneFrame(t testing.TB, data []byte) (FrameKind, []byte) {
	t.Helper()
	kind, payload, err := NewFrameScanner(bytes.NewReader(data)).Next()
	if err != nil {
		t.Fatal(err)
	}
	return kind, payload
}

func TestBatchRoundTrip(t *testing.T) {
	want := sampleBatch()
	frame, err := EncodeBatchFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload := readOneFrame(t, frame)
	if kind != FrameBatch {
		t.Fatalf("kind = %d", kind)
	}
	got, err := DecodeBatchPayloadInto(payload, new(BatchBuf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestBatchRoundTripEmpty(t *testing.T) {
	want := &Batch{Origin: Origin{Job: "j", Node: "n", Rank: -1}, Seq: 0}
	frame, err := EncodeBatchFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	_, payload := readOneFrame(t, frame)
	got, err := DecodeBatchPayloadInto(payload, new(BatchBuf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != -1 || got.Job != "j" || len(got.Events) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := &SnapshotMsg{
		Origin: Origin{Job: "job-42", Node: "node-0001", Rank: 3},
		Snapshot: core.Snapshot{
			DurationSec: 27.5, Rank: 3, Size: 8, PID: 4242,
			Hostname: "node-0001", Comm: "miniqmc",
			ProcessAff: topology.RangeCPUSet(1, 7),
			LWPs: []core.ThreadSummary{{
				TID: 4242, Label: "Main", Kind: core.KindMain,
				UTimePct: 93.5, STimePct: 2.25, NVCtx: 17, VCtx: 4,
				Affinity:     topology.NewCPUSet(1),
				ObservedCPUs: topology.NewCPUSet(1, 2),
				CPUChanges:   1, MinFlt: 12,
			}},
			HWTs:         []core.HWTSummary{{CPU: 1, IdlePct: 3, SysPct: 2, UserPct: 95}},
			MemPeakRSSKB: 1 << 20,
		},
		CommRow: map[int]uint64{2: 7 << 20, 4: 1 << 20},
	}
	frame, err := EncodeSnapshotFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload := readOneFrame(t, frame)
	if kind != FrameSnapshot {
		t.Fatalf("kind = %d", kind)
	}
	got, err := DecodeSnapshotPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestReadFrameConcatenated(t *testing.T) {
	b := sampleBatch()
	var buf []byte
	var err error
	for i := 0; i < 3; i++ {
		b.Seq = uint64(i)
		if buf, err = AppendBatchFrame(buf, b); err != nil {
			t.Fatal(err)
		}
	}
	sc := NewFrameScanner(bytes.NewReader(buf))
	for i := 0; i < 3; i++ {
		_, payload, err := sc.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := DecodeBatchPayloadInto(payload, new(BatchBuf))
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != uint64(i) {
			t.Fatalf("frame %d has seq %d", i, got.Seq)
		}
	}
	if _, _, err := sc.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after last frame, got %v", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	frame, err := EncodeBatchFrame(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"bad magic":   append([]byte("NOPE"), frame[4:]...),
		"bad version": stampVersion(frame, 99),
		"truncated":   frame[:len(frame)-5],
	}
	for name, data := range cases {
		if _, _, err := NewFrameScanner(bytes.NewReader(data)).Next(); err == nil || err == io.EOF {
			t.Errorf("%s: want error, got %v", name, err)
		}
	}
}

func TestDecodeBatchPayloadRejectsTrailing(t *testing.T) {
	frame, err := EncodeBatchFrame(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	_, payload := readOneFrame(t, frame)
	if _, err := DecodeBatchPayloadInto(append(payload, 0), new(BatchBuf)); err == nil {
		t.Fatal("trailing byte not rejected")
	}
	if _, err := DecodeBatchPayloadInto(payload[:len(payload)-1], new(BatchBuf)); err == nil {
		t.Fatal("truncated payload not rejected")
	}
}

func TestEncodeRejectsNilPayload(t *testing.T) {
	b := &Batch{Events: []export.Event{{Kind: export.EventLWP}}}
	if _, err := EncodeBatchFrame(b); err == nil {
		t.Fatal("nil LWP payload not rejected")
	}
}
