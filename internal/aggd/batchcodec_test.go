package aggd

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/gpu"
	"zerosum/internal/sim"
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

// TestWireCompressionRatio pins the headline property of the format: on
// the steady-state workload fixture a sample costs 12.35 bytes framed. The
// ceiling is that figure plus 2 %. (The fixed-width v3 layout this format
// replaced spent 66.37 bytes/event on the same fixture; this format is 0.186x of it.)
func TestWireCompressionRatio(t *testing.T) {
	const maxBytesPerEvent = 12.60
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

// TestWireRoundTripEdgeValues: the field codings are bijective, so the
// awkward corners — stalled flags riding the state byte's high bit,
// negative ranks, counters that wrap, NaN and signed-zero floats — must
// survive encode → decode → encode unchanged.
func TestWireRoundTripEdgeValues(t *testing.T) {
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

// TestWireRejectsHostilePayloads drives the strict decoder through the
// malformed shapes the format invites: truncated or lying dictionaries,
// table strings resent in the dictionary, non-canonical varints, references
// out of first-use order, and deltas that reconstruct values no encoder
// could have sent.
func TestWireRejectsHostilePayloads(t *testing.T) {
	// A dictionary entry's ref is staticRefs (21) plus its index.
	cases := map[string][]byte{
		"empty payload":      {},
		"dict count lies":    {200, 1},                                    // claims 200 strings in 1 byte
		"dict count huge":    {0xFF, 0xFF, 0xFF, 0x7F},                    // > maxDictStrings
		"dict truncated":     {2, 1, 'x'},                                 // second entry missing
		"duplicate string":   {2, 1, 'x', 1, 'x'},                         // same bytes twice
		"non-minimal varint": {0x80, 0x00},                                // 0 in two bytes
		"varint overflow":    append(bytes.Repeat([]byte{0xFF}, 9), 0x02), // 65 bits
		"varint ten bytes":   bytes.Repeat([]byte{0x80}, 10),
		"ref past dict":      {1, 0, 22},                              // jobRef 22 of a 1-entry dict
		"ref out of order":   {2, 1, 'x', 1, 'y', 22, 21, 0, 1, 0, 0}, // entry 1 used before entry 0
		"unused dict entry":  {2, 1, 'x', 0, 21, 21, 0, 1, 0, 0},      // entry 1 never referenced
		"event count lies":   {1, 0, 21, 21, 0, 1, 0, 100},            // 100 events in 0 bytes
		"unknown event tag":  {1, 0, 21, 21, 0, 1, 0, 1, 99, 0},
		"trailing bytes":     {1, 0, 21, 21, 0, 1, 0, 0, 0},
		"tid delta overflow": append([]byte{1, 0, 21, 21, 0, 1, 0, 1, tagLWP, 0},
			bytes.Repeat([]byte{0xFF}, 9)...), // then 0x01 below
	}
	cases["tid delta overflow"] = append(cases["tid delta overflow"], 0x01)
	// A dictionary entry equal to a table string is not canonical: its
	// table ref is the shorter encoding.
	for _, s := range staticStrings {
		p := append(appendUvarint([]byte{1}, uint64(len(s))), s...)
		cases["table string "+s] = append(p, 21, 21, 0, 1, 0, 0)
	}
	for name, payload := range cases {
		if _, err := DecodeBatchPayloadInto(payload, new(BatchBuf)); err == nil {
			t.Errorf("%s: accepted", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestWireEncodeWarmZeroAlloc: a warm pooled encoder frames a batch into
// a pre-grown buffer without allocating — the agent-side half of the
// zero-allocation contract.
func TestWireEncodeWarmZeroAlloc(t *testing.T) {
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
		t.Errorf("warm encode allocates %.1f per run, want 0", avg)
	}
}

// TestWireStaticTableCoversMonitorLabels: every label a monitor emits is a
// table entry, so no frame spends dictionary bytes on it. The table is a
// literal (reordering gpu.MetricNames must not renumber the wire), so this
// is what notices a new metric or thread kind that ought to join it.
func TestWireStaticTableCoversMonitorLabels(t *testing.T) {
	want := append([]string(nil), gpu.MetricNames...)
	for k := core.KindOther; k <= core.KindMain; k++ {
		want = append(want, k.String())
	}
	want = append(want, "Main, OpenMP") // Monitor.kindLabel's dual label
	for _, s := range want {
		if _, ok := staticIndex[s]; !ok {
			t.Errorf("label %q is not in the static table", s)
		}
	}
	if len(staticIndex) != len(staticStrings) || staticRefs != 21 {
		t.Fatalf("static table: %d distinct of %d entries, want 21 distinct", len(staticIndex), len(staticStrings))
	}
}

// dictLen returns the dictionary entry count a batch payload opens with.
func dictLen(t *testing.T, payload []byte) uint64 {
	t.Helper()
	n, err := (&decoder{buf: payload}).uvarint()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWireTableLabelsShipNoDictionary: a frame whose labels are all table
// entries carries a dictionary of exactly its job and node.
func TestWireTableLabelsShipNoDictionary(t *testing.T) {
	b := tapeShapeBatches(1, 512)[0]
	frame, err := EncodeBatchFrame(&b)
	if err != nil {
		t.Fatal(err)
	}
	if n := dictLen(t, frame[FrameHeaderLen:]); n != 2 {
		t.Fatalf("dictionary holds %d strings, want 2 (job, node)", n)
	}
}

// TestWireUnknownLabelUsesDictionary: a label outside the table (a metric a
// real SMI adds, a custom thread kind) ships in the frame's dictionary and
// round-trips byte for byte.
func TestWireUnknownLabelUsesDictionary(t *testing.T) {
	want := &Batch{
		Origin: Origin{Job: "j", Node: "n", Rank: 1},
		Events: []export.Event{
			{Kind: export.EventGPU, TimeSec: 1, GPU: &export.GPUSample{TimeSec: 1, GPU: 0, Metric: "SM Clock (MHz)", Value: 1410}},
			{Kind: export.EventGPU, TimeSec: 1, GPU: &export.GPUSample{TimeSec: 1, GPU: 0, Metric: "Device Busy %", Value: 7}},
			{Kind: export.EventLWP, TimeSec: 1, LWP: &export.LWPSample{TimeSec: 1, TID: 5, Kind: "Comm", State: 'S'}},
			{Kind: export.EventGPU, TimeSec: 2, GPU: &export.GPUSample{TimeSec: 2, GPU: 0, Metric: "SM Clock (MHz)", Value: 1395}},
		},
	}
	frame, err := EncodeBatchFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	if n := dictLen(t, frame[FrameHeaderLen:]); n != 4 {
		t.Fatalf("dictionary holds %d strings, want 4 (job, node, metric, kind)", n)
	}
	got, err := DecodeBatchPayloadInto(frame[FrameHeaderLen:], new(BatchBuf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	re, err := EncodeBatchFrame(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, frame) {
		t.Fatal("decode → encode not byte-identical")
	}
}

// tapeShapeBatches cuts a rank's stream, shaped like one rank of the
// benchmark tape (the paper's Table 3 job on a Frontier node), into frames
// of size events, the way an agent does. Per 1 Hz tick: 9 LWP rows (Main
// doubling as an OpenMP thread, 6 OpenMP workers, a helper, the monitor),
// 128 HWT rows of which the 56 the rank's threads run on are busy, one Mem
// row, 16 GPU rows labelled with gpu.MetricNames, and one IO row. Busy
// rows' percentages come from whole jiffies out of about 100, as /proc's do.
func tapeShapeBatches(frames, size int) []Batch {
	rng := sim.NewRNG(2)
	pct := func(x, total int) float64 { return 100 * float64(x) / float64(total) }
	var events []export.Event
	for tick := 0; len(events) < frames*size; tick++ {
		t := 9.064 + float64(tick)
		for i, kind := range []string{"Main, OpenMP", "OpenMP", "OpenMP", "OpenMP", "OpenMP", "OpenMP", "OpenMP", "Other", "ZeroSum"} {
			l := &export.LWPSample{TimeSec: t, TID: 18300 + 2*i, Kind: kind, State: 'R',
				VCtx: uint64(30*tick + i), MinFlt: 361, CPU: 1 + i}
			if i < 7 {
				l.UserPct, l.SysPct, l.NVCtx = float64(97+rng.Intn(3)), float64(1+rng.Intn(2)), uint64(rng.Intn(80)*tick)
			}
			events = append(events, export.Event{Kind: export.EventLWP, TimeSec: t, LWP: l})
		}
		for cpu := 0; cpu < 128; cpu++ {
			h := &export.HWTSample{TimeSec: t, CPU: cpu, IdlePct: 100}
			if cpu < 64 && cpu%8 != 0 {
				u, s, i := 97+rng.Intn(3), 1+rng.Intn(2), rng.Intn(2)
				h.IdlePct, h.SysPct, h.UserPct = pct(i, u+s+i), pct(s, u+s+i), pct(u, u+s+i)
			}
			events = append(events, export.Event{Kind: export.EventHWT, TimeSec: t, HWT: h})
		}
		free := uint64(517996544 - 4096*rng.Intn(64))
		events = append(events, export.Event{Kind: export.EventMem, TimeSec: t, Mem: &export.MemSample{TimeSec: t,
			TotalKB: 536870912, FreeKB: free, AvailKB: free + 3145728, ProcRSSKB: 1572864, ProcHWMKB: 1572864}})
		for m, name := range gpu.MetricNames {
			v := float64(m * 100)
			if m%4 == 3 { // energy, memory controller, used GTT and voltage move
				v += rng.Float64()
			}
			events = append(events, export.Event{Kind: export.EventGPU, TimeSec: t, GPU: &export.GPUSample{TimeSec: t,
				Metric: name, Value: v}})
		}
		events = append(events, export.Event{Kind: export.EventIO, TimeSec: t, IO: &export.IOSample{TimeSec: t}})
	}
	out := make([]Batch, frames)
	for i := range out {
		out[i] = Batch{Origin: Origin{Job: "bench", Node: "frontier09085", Rank: 2}, Epoch: 1, Seq: uint64(i),
			Events: events[i*size : (i+1)*size]}
	}
	return out
}

// TestWireTapeShapeBytes pins what a tape-shaped frame costs, raw and after
// the ship path's gzip encoder, at the tree's 128-event and the flat root's
// 512-event batch size: 14.39 / 4.20 and 13.69 / 3.03 bytes per event. The
// ceilings are those figures plus 2 %. Before the static string table,
// when every frame resent its labels, they were 16.41 / 5.60 and
// 14.33 / 3.50.
func TestWireTapeShapeBytes(t *testing.T) {
	for _, c := range []struct {
		size         int
		maxRaw, maxZ float64
	}{
		{128, 14.68, 4.28},
		{512, 13.97, 3.09},
	} {
		t.Run(fmt.Sprint(c.size), func(t *testing.T) {
			var e gzipEncoder
			var raw, z, n int
			for _, b := range tapeShapeBatches(24, c.size) {
				frame, err := EncodeBatchFrame(&b)
				if err != nil {
					t.Fatal(err)
				}
				raw += len(frame)
				z += len(e.encode(nil, frame))
				n += len(b.Events)
			}
			perRaw, perZ := float64(raw)/float64(n), float64(z)/float64(n)
			t.Logf("%d-event frames: %.2f raw, %.2f gzip bytes/event", c.size, perRaw, perZ)
			if perRaw > c.maxRaw || perZ > c.maxZ {
				t.Fatalf("%.2f raw, %.2f gzip bytes/event; want <= %.2f, %.2f", perRaw, perZ, c.maxRaw, c.maxZ)
			}
		})
	}
}
