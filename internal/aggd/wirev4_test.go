package aggd

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"zerosum/internal/export"
)

// steadyStateBatch models the wire traffic of a real monitored tick
// cadence: the same LWP/HWT/Mem streams sampled over and over with slowly
// moving counters — the workload the delta encoding is built for.
func steadyStateBatch() *Batch {
	b := &Batch{
		Origin: Origin{Job: "job-42", Node: "node-0003", Rank: 7},
		Epoch:  1,
	}
	for tick := 0; tick < 32; tick++ {
		t := 100.0 + float64(tick)
		for tid := 0; tid < 8; tid++ {
			b.Events = append(b.Events, export.Event{Kind: export.EventLWP, TimeSec: t,
				LWP: &export.LWPSample{TimeSec: t, TID: 4200 + tid, Kind: "OpenMP", State: 'R',
					UserPct: 98, SysPct: 1.5, VCtx: uint64(10*tick + tid), NVCtx: uint64(1000 * tick),
					MinFlt: uint64(34 + tick), CPU: tid}})
		}
		for cpu := 0; cpu < 4; cpu++ {
			b.Events = append(b.Events, export.Event{Kind: export.EventHWT, TimeSec: t,
				HWT: &export.HWTSample{TimeSec: t, CPU: cpu, IdlePct: 2.5, SysPct: 0.5, UserPct: 97}})
		}
		b.Events = append(b.Events, export.Event{Kind: export.EventMem, TimeSec: t,
			Mem: &export.MemSample{TimeSec: t, TotalKB: 64 << 20, FreeKB: uint64(32<<20 - 100*tick),
				AvailKB: 48 << 20, ProcRSSKB: uint64(1<<20 + 512*tick), ProcHWMKB: 2 << 20}})
	}
	return b
}

// TestWireV4CompressionRatio pins the headline property of the format: on
// the steady-state workload fixture a sample costs 12.37 bytes framed. The
// ceiling is that figure plus 2 %. (The fixed-width v3 layout this format
// replaced spent 66.37 bytes/event on the same fixture; v4 is 0.186x of it.)
func TestWireV4CompressionRatio(t *testing.T) {
	const maxBytesPerEvent = 12.62
	b := steadyStateBatch()
	frame, err := EncodeBatchFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(len(frame)) / float64(len(b.Events))
	t.Logf("%d bytes for %d events: %.2f bytes/event", len(frame), len(b.Events), perEvent)
	if perEvent > maxBytesPerEvent {
		t.Fatalf("%.2f bytes/event, want <= %.2f", perEvent, maxBytesPerEvent)
	}
}

// TestWireV4RoundTripEdgeValues: the field codings are bijective, so the
// awkward corners — stalled flags riding the state byte's high bit,
// negative ranks, counters that wrap, NaN and signed-zero floats — must
// survive encode → decode → encode unchanged.
func TestWireV4RoundTripEdgeValues(t *testing.T) {
	want := &Batch{
		Origin: Origin{Job: "j", Node: "n", Rank: -3},
		Epoch:  math.MaxUint64,
		Seq:    1 << 40,
		Events: []export.Event{
			{Kind: export.EventLWP, TimeSec: 1.25, LWP: &export.LWPSample{
				TimeSec: 1.25, TID: 2147483647, Kind: "Main", State: 'R', Stalled: true,
				UserPct: math.NaN(), SysPct: math.Copysign(0, -1),
				VCtx: math.MaxUint64, NVCtx: 1, CPU: 127,
			}},
			{Kind: export.EventLWP, TimeSec: 1.25, LWP: &export.LWPSample{
				TimeSec: 1.25, TID: 2147483647, Kind: "Main", State: 'S', Stalled: false,
				VCtx: 0, // wraps from MaxUint64: delta -1... still exact
				CPU:  0,
			}},
			{Kind: export.EventGPU, TimeSec: 0.5, GPU: &export.GPUSample{ // time runs backwards
				TimeSec: 0.5, GPU: -1, Metric: "m", Value: math.Inf(-1),
			}},
			{Kind: export.EventHeartbeat, TimeSec: 0},
		},
	}
	frame, err := EncodeBatchFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchPayloadInto(frame[FrameHeaderLen:], new(BatchBuf))
	if err != nil {
		t.Fatal(err)
	}
	re, err := EncodeBatchFrame(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, frame) {
		t.Fatal("decode → encode not byte-identical")
	}
	if math.Signbit(got.Events[0].LWP.SysPct) != true {
		t.Fatal("-0.0 lost its sign")
	}
	// NaN breaks DeepEqual; compare its bits, then blank it for the rest.
	if gb, wb := math.Float64bits(got.Events[0].LWP.UserPct), math.Float64bits(want.Events[0].LWP.UserPct); gb != wb {
		t.Fatalf("NaN bits changed: %x != %x", gb, wb)
	}
	got.Events[0].LWP.UserPct, want.Events[0].LWP.UserPct = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestWireV4RejectsHostilePayloads drives the strict decoder through the
// malformed shapes the format invites: truncated or lying dictionaries,
// non-canonical varints, references out of first-use order, and deltas that
// reconstruct values no encoder could have sent.
func TestWireV4RejectsHostilePayloads(t *testing.T) {
	cases := map[string][]byte{
		"empty payload":      {},
		"dict count lies":    {200, 1},                                    // claims 200 strings in 1 byte
		"dict count huge":    {0xFF, 0xFF, 0xFF, 0x7F},                    // > v4MaxStrings
		"dict truncated":     {2, 1, 'x'},                                 // second entry missing
		"duplicate string":   {2, 1, 'x', 1, 'x'},                         // same bytes twice
		"non-minimal varint": {0x80, 0x00},                                // 0 in two bytes
		"varint overflow":    append(bytes.Repeat([]byte{0xFF}, 9), 0x02), // 65 bits
		"varint ten bytes":   bytes.Repeat([]byte{0x80}, 10),
		"ref past dict":      {1, 0, 1},                        // jobRef 1 of 1-entry dict
		"unused dict entry":  {2, 1, 'x', 0, 0, 0, 0, 1, 0, 0}, // entry 1 never referenced
		"event count lies":   {1, 0, 0, 0, 0, 1, 0, 200},       // 200 events in 0 bytes
		"unknown event tag":  {1, 0, 0, 0, 0, 1, 0, 1, 99, 0},
		"trailing bytes":     {1, 0, 0, 0, 0, 1, 0, 0, 0},
		"tid delta overflow": append([]byte{1, 0, 0, 0, 0, 1, 0, 1, tagLWP, 0},
			bytes.Repeat([]byte{0xFF}, 9)...), // then 0x01 below
	}
	cases["tid delta overflow"] = append(cases["tid delta overflow"], 0x01)
	for name, payload := range cases {
		if _, err := DecodeBatchPayloadInto(payload, new(BatchBuf)); err == nil {
			t.Errorf("%s: accepted", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestWireV4EncodeWarmZeroAlloc: a warm pooled encoder frames a batch into
// a pre-grown buffer without allocating — the agent-side half of the
// zero-allocation contract.
func TestWireV4EncodeWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode makes sync.Pool drop entries by design; the pooled encoder then reallocates")
	}
	b := steadyStateBatch()
	buf, err := AppendBatchFrame(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendBatchFrame(buf[:0], b)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm v4 encode allocates %.1f per run, want 0", avg)
	}
}
