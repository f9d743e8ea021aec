package aggd

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"zerosum/internal/export"
)

// frameLogInstant returns the events of sampling instant i: one of every
// payload kind plus a heartbeat, all stamped with the instant's time.
func frameLogInstant(i int) []export.Event {
	ts := 1.004 + float64(i)*1.007
	f := float64(i)
	u := uint64(i)
	return []export.Event{
		{Kind: export.EventLWP, TimeSec: ts, LWP: &export.LWPSample{
			TimeSec: ts, TID: 4242, Kind: "Main", State: 'R', UserPct: 90 + f,
			SysPct: 1.5, VCtx: 10 * u, NVCtx: 3 * u, MinFlt: u, CPU: i % 2,
		}},
		{Kind: export.EventHWT, TimeSec: ts, HWT: &export.HWTSample{
			TimeSec: ts, CPU: 1, IdlePct: 8 - f, SysPct: 2, UserPct: 90 + f,
		}},
		{Kind: export.EventGPU, TimeSec: ts, GPU: &export.GPUSample{
			TimeSec: ts, GPU: 0, Metric: "Device Busy %", Value: 50 + f,
		}},
		{Kind: export.EventMem, TimeSec: ts, Mem: &export.MemSample{
			TimeSec: ts, TotalKB: 1 << 29, FreeKB: 1<<28 - 64*u, AvailKB: 1 << 27,
			ProcRSSKB: 4096 + u, ProcHWMKB: 8192,
		}},
		{Kind: export.EventIO, TimeSec: ts, IO: &export.IOSample{
			TimeSec: ts, RChar: 100 * u, WChar: 7 * u, SyscR: u, SyscW: u,
		}},
		{Kind: export.EventHeartbeat, TimeSec: ts},
	}
}

func TestFrameLogRoundTrip(t *testing.T) {
	const instants = 3
	origin := Origin{Job: "job-7", Node: "node-0001", Rank: 3}
	var buf bytes.Buffer
	fl := NewFrameLog(&buf, origin)
	sub := fl.Subscriber()
	for i := 0; i < instants; i++ {
		evs := frameLogInstant(i)
		for _, ev := range evs {
			sub(ev)
		}
		// Payloads are borrowed from the publisher, which reuses them on
		// its next tick: the log must already hold its own copies.
		*evs[0].LWP = export.LWPSample{}
		*evs[1].HWT = export.HWTSample{}
		*evs[2].GPU = export.GPUSample{}
		*evs[3].Mem = export.MemSample{}
		*evs[4].IO = export.IOSample{}
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()

	// read scans data and checks each frame against its instant; it
	// returns the number of instants read and the error that ended them.
	read := func(data []byte) (int, error) {
		sc := NewFrameScanner(bytes.NewReader(data))
		var bb BatchBuf
		for i := 0; ; i++ {
			kind, payload, err := sc.Next()
			if err != nil {
				return i, err
			}
			b, err := DecodeBatchPayloadInto(payload, &bb)
			if kind != FrameBatch || err != nil {
				t.Fatalf("frame %d: kind %d, %v", i, kind, err)
			}
			if b.Origin != origin || b.Epoch != 0 || b.Seq != uint64(i) {
				t.Fatalf("frame %d: origin %+v epoch %d seq %d", i, b.Origin, b.Epoch, b.Seq)
			}
			if want := frameLogInstant(i); !reflect.DeepEqual(b.Events, want) {
				t.Fatalf("frame %d events:\ngot  %+v\nwant %+v", i, b.Events, want)
			}
		}
	}
	if n, err := read(out); n != instants || err != io.EOF {
		t.Fatalf("whole log: %d instants, %v; want %d, EOF", n, err, instants)
	}
	// A writer that dies mid-frame leaves every earlier instant readable.
	if n, err := read(out[:len(out)-5]); n != instants-1 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn log: %d instants, %v; want %d, unexpected EOF", n, err, instants-1)
	}
}

func TestFrameLogEmptyClose(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameLog(&buf, Origin{}).Close(); err != nil || buf.Len() != 0 {
		t.Fatalf("empty log: %v, %d bytes", err, buf.Len())
	}
}

// failWriter fails every write.
type failWriter struct{ writes int }

func (w *failWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errors.New("disk full")
}

func TestFrameLogWriteError(t *testing.T) {
	w := &failWriter{}
	fl := NewFrameLog(w, Origin{Job: "j"})
	sub := fl.Subscriber()
	for i := 0; i < 3; i++ {
		for _, ev := range frameLogInstant(i) {
			sub(ev)
		}
	}
	if err := fl.Close(); err == nil || w.writes != 1 {
		t.Fatalf("Close = %v after %d writes; want the first write's error, and no write after it", err, w.writes)
	}
}

// csvLogs is one CSVSink's four outputs.
type csvLogs struct{ lwp, hwt, gpu, mem strings.Builder }

func (c *csvLogs) sink() *export.CSVSink {
	return export.NewCSVSink(&c.lwp, &c.hwt, &c.gpu, &c.mem)
}

// TestCSVSinkEqualsFrameLog: the CSVs a sink writes live from a stream and
// the CSVs rendered from a FrameLog of the same stream are the same bytes,
// so a rank can keep only the log. One LWP sample is Stalled, which the
// wire packs into the state byte's high bit.
func TestCSVSinkEqualsFrameLog(t *testing.T) {
	var live csvLogs
	liveSink := live.sink()
	var buf bytes.Buffer
	fl := NewFrameLog(&buf, Origin{Job: "j", Node: "n0", Rank: 1})
	var stream export.Stream
	stream.Subscribe(liveSink.Subscriber())
	stream.Subscribe(fl.Subscriber())
	for i := 0; i < 4; i++ {
		evs := frameLogInstant(i)
		if i == 2 {
			evs[0].LWP.Stalled, evs[0].LWP.State = true, 'S'
		}
		evs = append(evs, export.Event{Kind: export.EventLWP, TimeSec: evs[0].TimeSec, LWP: &export.LWPSample{
			TimeSec: evs[0].TimeSec, TID: 4243, Kind: "Main, OpenMP", State: 'D', UserPct: 1.0 / 3,
			NSwap: uint64(i), MajFlt: 7, CPU: 63, Stalled: i%2 == 1,
		}})
		for _, ev := range evs {
			stream.Publish(ev)
		}
	}
	if err := liveSink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	var replayed csvLogs
	sink := replayed.sink()
	skip := func(err error) { t.Errorf("replay skipped: %v", err) }
	if err := ReplayFrameLog(bytes.NewReader(buf.Bytes()), sink.Subscriber(), skip); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(live.lwp.String(), ",S,") || !strings.Contains(live.lwp.String(), ",1\n") {
		t.Fatalf("live LWP log lacks the stalled sample:\n%s", live.lwp.String())
	}
	for _, c := range []struct {
		kind       string
		live, back *strings.Builder
	}{
		{"lwp", &live.lwp, &replayed.lwp}, {"hwt", &live.hwt, &replayed.hwt},
		{"gpu", &live.gpu, &replayed.gpu}, {"mem", &live.mem, &replayed.mem},
	} {
		if c.live.String() != c.back.String() {
			t.Errorf("%s CSV from the log differs from the live one:\nlive\n%s\nlog\n%s", c.kind, c.live.String(), c.back.String())
		}
	}
}

// TestReplayFrameLogSkipsAndStops: corrupt bytes between frames are passed
// to skip and the replay goes on; a torn last frame ends it with an error
// after the frames before it were delivered.
func TestReplayFrameLogSkipsAndStops(t *testing.T) {
	var buf bytes.Buffer
	fl := NewFrameLog(&buf, Origin{Job: "j"})
	sub := fl.Subscriber()
	var frameEnds []int
	for i := 0; i < 3; i++ {
		for _, ev := range frameLogInstant(i) {
			sub(ev) // the first event of instant i+1 writes frame i
		}
		frameEnds = append(frameEnds, buf.Len())
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// garbage after the first frame; the last frame loses its tail.
	var damaged []byte
	damaged = append(damaged, data[:frameEnds[1]]...)
	damaged = append(damaged, "garbage"...)
	damaged = append(damaged, data[frameEnds[1]:len(data)-4]...)

	times := map[float64]bool{}
	var skipped []error
	err := ReplayFrameLog(bytes.NewReader(damaged), func(ev export.Event) { times[ev.TimeSec] = true },
		func(err error) { skipped = append(skipped, err) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("replay ended with %v, want the torn frame's unexpected EOF", err)
	}
	var corrupt *CorruptFrameError
	if len(skipped) != 1 || !errors.As(skipped[0], &corrupt) {
		t.Fatalf("skipped %v, want one corrupt stretch", skipped)
	}
	if len(times) != 2 {
		t.Fatalf("replayed %d instants, want the 2 before the torn frame", len(times))
	}
}
