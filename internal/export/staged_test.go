package export

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestStagedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewStagedWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginStep(1.0); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("lwp.1.user_pct", 95.5); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("lwp.1.user_pct", 96.5); err != nil { // appends
		t.Fatal(err)
	}
	if err := w.Put("mem.free_kb", 12345); err != nil {
		t.Fatal(err)
	}
	if err := w.EndStep(); err != nil {
		t.Fatal(err)
	}
	if err := w.BeginStep(2.0); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("empty.block"); err != nil {
		t.Fatal(err)
	}
	if err := w.EndStep(); err != nil {
		t.Fatal(err)
	}
	if w.Steps() != 2 {
		t.Fatalf("steps = %d", w.Steps())
	}

	r, err := NewStagedReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := r.ReadAllSteps()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("read %d steps", len(steps))
	}
	if steps[0].Index != 0 || steps[0].Time != 1.0 {
		t.Fatalf("step 0 header: %+v", steps[0])
	}
	if !reflect.DeepEqual(steps[0].Vars["lwp.1.user_pct"], []float64{95.5, 96.5}) {
		t.Fatalf("appended block: %v", steps[0].Vars)
	}
	if steps[0].Vars["mem.free_kb"][0] != 12345 {
		t.Fatal("second var lost")
	}
	if got, ok := steps[1].Vars["empty.block"]; len(steps[1].Vars) != 1 || !ok {
		t.Fatalf("step 1 vars: %v", steps[1].Vars)
	} else if len(got) != 0 {
		t.Fatal("empty block should stay empty")
	}
}

func TestStagedWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewStagedWriter(&buf)
	if err := w.Put("x", 1); err == nil {
		t.Fatal("Put outside step should fail")
	}
	if err := w.EndStep(); err == nil {
		t.Fatal("EndStep without step should fail")
	}
	if err := w.BeginStep(0); err != nil {
		t.Fatal(err)
	}
	if err := w.BeginStep(1); err == nil {
		t.Fatal("nested BeginStep should fail")
	}
}

func TestStagedReaderValidation(t *testing.T) {
	if _, err := NewStagedReader(bytes.NewReader([]byte("WRONG!"))); err == nil {
		t.Fatal("bad magic should fail")
	}
	if _, err := NewStagedReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream should fail")
	}
	// Truncated frame: readable prefix then an error (not a hang).
	var buf bytes.Buffer
	w, _ := NewStagedWriter(&buf)
	w.BeginStep(1)
	w.Put("a", 1, 2, 3)
	w.EndStep()
	data := buf.Bytes()
	r, err := NewStagedReader(bytes.NewReader(data[:len(data)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated frame should error")
	}
}

func TestStagedCrashLeavesReadablePrefix(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewStagedWriter(&buf)
	for i := 0; i < 3; i++ {
		w.BeginStep(float64(i))
		w.Put("v", float64(i)*10)
		w.EndStep()
	}
	// "Crash": a step begun but never ended is simply absent.
	w.BeginStep(99)
	w.Put("v", 999)

	r, _ := NewStagedReader(bytes.NewReader(buf.Bytes()))
	steps, err := r.ReadAllSteps()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("prefix steps = %d, want 3", len(steps))
	}
}

func TestStagedSinkGroupsByTimestamp(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewStagedWriter(&buf)
	sink := NewStagedSink(w)
	var stream Stream
	stream.Subscribe(sink.Subscriber())

	for tick := 1; tick <= 3; tick++ {
		ts := float64(tick)
		stream.Publish(Event{Kind: EventLWP, TimeSec: ts,
			LWP: &LWPSample{TID: 100, UserPct: 90, VCtx: uint64(tick)}})
		stream.Publish(Event{Kind: EventHWT, TimeSec: ts,
			HWT: &HWTSample{CPU: 1, UserPct: 88}})
		stream.Publish(Event{Kind: EventMem, TimeSec: ts,
			Mem: &MemSample{FreeKB: 1000, ProcRSSKB: 10}})
		stream.Publish(Event{Kind: EventGPU, TimeSec: ts,
			GPU: &GPUSample{GPU: 0, Metric: "Device Busy %", Value: 14.6}})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	r, _ := NewStagedReader(bytes.NewReader(buf.Bytes()))
	steps, err := r.ReadAllSteps()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("steps = %d, want 3 (one per timestamp)", len(steps))
	}
	st := steps[1]
	if st.Time != 2 {
		t.Fatalf("step time = %v", st.Time)
	}
	if st.Vars["lwp.100.user_pct"][0] != 90 {
		t.Fatalf("lwp var: %v", st.Vars)
	}
	if st.Vars["hwt.1.user_pct"][0] != 88 {
		t.Fatal("hwt var missing")
	}
	if st.Vars["gpu.0.Device Busy %"][0] != 14.6 {
		t.Fatal("gpu var missing")
	}
	if st.Vars["mem.free_kb"][0] != 1000 {
		t.Fatal("mem var missing")
	}
}

func TestStagedSinkEmptyClose(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewStagedWriter(&buf)
	sink := NewStagedSink(w)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewStagedReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestQuickStagedRoundTrip(t *testing.T) {
	f := func(times []uint16, vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0 // NaN != NaN breaks DeepEqual; values survive regardless
			}
		}
		var buf bytes.Buffer
		w, err := NewStagedWriter(&buf)
		if err != nil {
			return false
		}
		for i, tt := range times {
			if w.BeginStep(float64(tt)) != nil {
				return false
			}
			if w.Put("v", vals...) != nil {
				return false
			}
			if w.Put("i", float64(i)) != nil {
				return false
			}
			if w.EndStep() != nil {
				return false
			}
		}
		r, err := NewStagedReader(&buf)
		if err != nil {
			return false
		}
		steps, err := r.ReadAllSteps()
		if err != nil || len(steps) != len(times) {
			return false
		}
		for i, st := range steps {
			if st.Time != float64(times[i]) || st.Vars["i"][0] != float64(i) {
				return false
			}
			if !reflect.DeepEqual(st.Vars["v"], append([]float64{}, vals...)) {
				// Empty slices decode as non-nil empty; normalise.
				if len(st.Vars["v"]) != len(vals) {
					return false
				}
				for j := range vals {
					if st.Vars["v"][j] != vals[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
