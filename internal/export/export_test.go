package export

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// sinkCSV publishes evs through a CSVSink and returns the LWP, HWT, GPU
// and Mem logs it wrote.
func sinkCSV(t *testing.T, evs ...Event) (lwp, hwt, gpu, mem string) {
	t.Helper()
	var l, h, g, m strings.Builder
	sink := NewCSVSink(&l, &h, &g, &m)
	var s Stream
	s.Subscribe(sink.Subscriber())
	for _, ev := range evs {
		s.Publish(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return l.String(), h.String(), g.String(), m.String()
}

func lwpEvents(in []LWPSample) []Event {
	evs := make([]Event, len(in))
	for k := range in {
		evs[k] = Event{Kind: EventLWP, TimeSec: in[k].TimeSec, LWP: &in[k]}
	}
	return evs
}

func TestLWPCSVRoundTrip(t *testing.T) {
	in := []LWPSample{
		{TimeSec: 1, TID: 18351, Kind: "Main", State: 'R', UserPct: 63.94,
			SysPct: 12.48, VCtx: 365488, NVCtx: 4, MinFlt: 120, MajFlt: 1, NSwap: 0, CPU: 1},
		{TimeSec: 2, TID: 18356, Kind: "ZeroSum", State: 'S', UserPct: 0.26,
			SysPct: 0.15, VCtx: 679, NVCtx: 9, CPU: 7},
	}
	lwp, _, _, _ := sinkCSV(t, lwpEvents(in)...)
	out, err := ReadLWPCSV(strings.NewReader(lwp))
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
	_, hwt, _, _ := sinkCSV(t,
		Event{Kind: EventHWT, TimeSec: 1, HWT: &in[0]},
		Event{Kind: EventHWT, TimeSec: 1, HWT: &in[1]})
	out, err := ReadHWTCSV(strings.NewReader(hwt))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch")
	}
}

func TestGPUAndMemCSVRoundTrip(t *testing.T) {
	gin := GPUSample{TimeSec: 1, GPU: 0, Metric: "Device Busy %", Value: 14.6161}
	min := []MemSample{{TimeSec: 2, TotalKB: 512 << 20, FreeKB: 100, AvailKB: 200, ProcRSSKB: 42, ProcHWMKB: 50}}
	lwp, _, gpu, mem := sinkCSV(t,
		Event{Kind: EventGPU, TimeSec: 1, GPU: &gin},
		Event{Kind: EventMem, TimeSec: 2, Mem: &min[0]})
	if want := "time,gpu,metric,value\n1.0000,0,Device Busy %,14.6161\n"; gpu != want {
		t.Fatalf("gpu csv = %q, want %q", gpu, want)
	}
	// A kind without rows still gets its header.
	if want := strings.Join(LWPHeader, ",") + "\n"; lwp != want {
		t.Fatalf("lwp csv = %q, want %q", lwp, want)
	}
	mout, err := ReadMemCSV(strings.NewReader(mem))
	if err != nil || !reflect.DeepEqual(min, mout) {
		t.Fatalf("mem round trip: %v %+v", err, mout)
	}
}

// TestCSVSinkSkipsNilWriters: a kind given no writer is neither written nor
// an error, and IO and heartbeat events have no CSV.
func TestCSVSinkSkipsNilWriters(t *testing.T) {
	var hwt strings.Builder
	sink := NewCSVSink(nil, &hwt, nil, nil)
	sub := sink.Subscriber()
	sub(Event{Kind: EventLWP, TimeSec: 1, LWP: &LWPSample{TID: 1}})
	sub(Event{Kind: EventHWT, TimeSec: 1, HWT: &HWTSample{TimeSec: 1, CPU: 3, IdlePct: 100}})
	sub(Event{Kind: EventIO, TimeSec: 1, IO: &IOSample{RChar: 1}})
	sub(Event{Kind: EventHeartbeat, TimeSec: 1})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if want := "time,cpu,idle_pct,sys_pct,user_pct\n1.0000,3,100.0000,0.0000,0.0000\n"; hwt.String() != want {
		t.Fatalf("hwt csv = %q, want %q", hwt.String(), want)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestCSVSinkErrorSticks: the first write error is kept, later events are
// dropped, and Close returns that error.
func TestCSVSinkErrorSticks(t *testing.T) {
	sink := NewCSVSink(nil, nil, nil, &failWriter{})
	sub := sink.Subscriber()
	for k := 0; k < 1000; k++ { // more than csv.Writer buffers
		sub(Event{Kind: EventMem, TimeSec: float64(k), Mem: &MemSample{TotalKB: 1 << 30}})
	}
	if err := sink.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close = %v, want the write error", err)
	}
}

// TestReadCSVRejectsBadCells: every reader refuses a cell that does not
// parse, and names the kind, the data row and the column, instead of
// reading it as zero.
func TestReadCSVRejectsBadCells(t *testing.T) {
	for _, c := range []struct {
		name, csv, want string
		read            func(string) error
	}{
		{"lwp", "time,tid,kind,state,user_pct,sys_pct,vctx,nvctx,minflt,majflt,nswap,cpu,stalled\n" +
			"1.0000,7,Main,R,1.0000,0.0000,1,1,0,0,0,2,0\n" +
			"2.0000,7,Main,R,1.0000,0.0000,x1,1,0,0,0,2,0\n",
			"lwp csv row 2, column vctx", func(s string) error { _, err := ReadLWPCSV(strings.NewReader(s)); return err }},
		{"hwt", "time,cpu,idle_pct,sys_pct,user_pct\n1.0000,notanumber,0.0000,0.0000,100.0000\n",
			"hwt csv row 1, column cpu", func(s string) error { _, err := ReadHWTCSV(strings.NewReader(s)); return err }},
		{"mem", "time,total_kb,free_kb,avail_kb,rss_kb,hwm_kb\n1.0000,1,2,3,4,5\n2.0000,1,2,3,4,-5\n",
			"mem csv row 2, column hwm_kb", func(s string) error { _, err := ReadMemCSV(strings.NewReader(s)); return err }},
		{"comm", "dst,src,bytes\n0,1,5\n1,zero,7\n",
			"comm csv row 2, column src", func(s string) error { _, err := ReadCommCSV(strings.NewReader(s), 2); return err }},
	} {
		err := c.read(c.csv)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
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
		lwp, _, _, _ := sinkCSV(t, lwpEvents(in)...)
		out, err := ReadLWPCSV(strings.NewReader(lwp))
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
