package export

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestLWPCSVRoundTrip(t *testing.T) {
	in := []LWPSample{
		{TimeSec: 1, TID: 18351, Kind: "Main", State: 'R', UserPct: 63.94,
			SysPct: 12.48, VCtx: 365488, NVCtx: 4, MinFlt: 120, MajFlt: 1, NSwap: 0, CPU: 1},
		{TimeSec: 2, TID: 18356, Kind: "ZeroSum", State: 'S', UserPct: 0.26,
			SysPct: 0.15, VCtx: 679, NVCtx: 9, CPU: 7},
	}
	var sb strings.Builder
	if err := WriteLWPCSV(&sb, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadLWPCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in=%+v\nout=%+v", in, out)
	}
}

func TestHWTCSVRoundTrip(t *testing.T) {
	in := []HWTSample{
		{TimeSec: 1, CPU: 1, IdlePct: 22.7, SysPct: 12.42, UserPct: 64.52},
		{TimeSec: 1, CPU: 2, IdlePct: 99.82, SysPct: 0, UserPct: 0},
	}
	var sb strings.Builder
	if err := WriteHWTCSV(&sb, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadHWTCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch")
	}
}

func TestGPUAndMemCSVRoundTrip(t *testing.T) {
	gin := []GPUSample{{TimeSec: 1, GPU: 0, Metric: "Device Busy %", Value: 14.6161}}
	var sb strings.Builder
	if err := WriteGPUCSV(&sb, gin); err != nil {
		t.Fatal(err)
	}
	if want := "time,gpu,metric,value\n1.0000,0,Device Busy %,14.6161\n"; sb.String() != want {
		t.Fatalf("gpu csv = %q, want %q", sb.String(), want)
	}
	min := []MemSample{{TimeSec: 2, TotalKB: 512 << 20, FreeKB: 100, AvailKB: 200, ProcRSSKB: 42, ProcHWMKB: 50}}
	sb.Reset()
	if err := WriteMemCSV(&sb, min); err != nil {
		t.Fatal(err)
	}
	mout, err := ReadMemCSV(strings.NewReader(sb.String()))
	if err != nil || !reflect.DeepEqual(min, mout) {
		t.Fatalf("mem round trip: %v %+v", err, mout)
	}
}

func TestCommCSVRoundTrip(t *testing.T) {
	m := [][]uint64{
		{0, 5, 0},
		{7, 0, 0},
		{0, 9, 0},
	}
	var sb strings.Builder
	if err := WriteCommCSV(&sb, m); err != nil {
		t.Fatal(err)
	}
	// Zero cells are omitted from the file.
	if strings.Count(sb.String(), "\n") != 4 { // header + 3 nonzero
		t.Fatalf("unexpected rows:\n%s", sb.String())
	}
	out, err := ReadCommCSV(strings.NewReader(sb.String()), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, out) {
		t.Fatalf("round trip: %v", out)
	}
}

func TestReadCommCSVOutOfRange(t *testing.T) {
	csv := "dst,src,bytes\n9,0,5\n"
	if _, err := ReadCommCSV(strings.NewReader(csv), 3); err == nil {
		t.Fatal("out-of-range entry should error")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := ReadLWPCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := ReadHWTCSV(strings.NewReader("a,b\n")); err == nil {
		t.Fatal("wrong width should error")
	}
}

func TestQuickLWPRoundTrip(t *testing.T) {
	f := func(tid uint16, user, sys uint8, vctx, nvctx uint32, cpu uint8) bool {
		in := []LWPSample{{
			TimeSec: 1.5, TID: int(tid), Kind: "OpenMP", State: 'R',
			UserPct: float64(user), SysPct: float64(sys),
			VCtx: uint64(vctx), NVCtx: uint64(nvctx), CPU: int(cpu),
		}}
		var sb strings.Builder
		if err := WriteLWPCSV(&sb, in); err != nil {
			return false
		}
		out, err := ReadLWPCSV(strings.NewReader(sb.String()))
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamPubSub(t *testing.T) {
	var s Stream
	var got []Event
	s.Subscribe(func(ev Event) { got = append(got, ev) })
	s.Subscribe(nil) // ignored
	second := 0
	s.Subscribe(func(Event) { second++ })
	s.Publish(Event{Kind: EventHeartbeat, TimeSec: 1})
	s.Publish(Event{Kind: EventLWP, TimeSec: 2, LWP: &LWPSample{TID: 7}})
	if len(got) != 2 || second != 2 {
		t.Fatalf("delivery: %d / %d", len(got), second)
	}
	if got[1].LWP.TID != 7 {
		t.Fatal("payload lost")
	}
	if s.Published() != 2 {
		t.Fatalf("published = %d", s.Published())
	}
}
