package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageNamesRoundTrip(t *testing.T) {
	for st := Stage(0); st < numStages; st++ {
		name := st.String()
		if strings.HasPrefix(name, "stage(") {
			t.Fatalf("stage %d has no name", st)
		}
		got, ok := StageByName(name)
		if !ok || got != st {
			t.Fatalf("StageByName(%q) = %v, %v; want %v, true", name, got, ok, st)
		}
	}
	if _, ok := StageByName("bogus"); ok {
		t.Fatal("StageByName accepted unknown name")
	}
	if !strings.HasPrefix(Stage(200).String(), "stage(") {
		t.Fatal("out-of-range stage should stringify to stage(n)")
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(StageTick, time.Unix(1, 0), time.Millisecond)
	r.RecordNS(StageScan, 0, 1)
	r.RecordError(StageScan)
	if got := r.Count(StageTick); got != 0 {
		t.Fatalf("nil Count = %d", got)
	}
	if got := r.TotalNS(StageTick); got != 0 {
		t.Fatalf("nil TotalNS = %d", got)
	}
	if got := r.Stats(); got != nil {
		t.Fatalf("nil Stats = %v", got)
	}
	if got := r.Spans(nil); got != nil {
		t.Fatalf("nil Spans = %v", got)
	}
}

func TestRecorderStatsAndRing(t *testing.T) {
	r := NewRecorder(8)
	base := time.Unix(100, 0)
	for i := 0; i < 5; i++ {
		r.Record(StageTick, base.Add(time.Duration(i)*time.Second), time.Duration(i+1)*time.Millisecond)
	}
	r.Record(StageScan, base, 500*time.Microsecond)
	r.RecordError(StageExport)

	if got := r.Count(StageTick); got != 5 {
		t.Fatalf("Count(tick) = %d, want 5", got)
	}
	wantTotal := int64((1 + 2 + 3 + 4 + 5) * time.Millisecond)
	if got := r.TotalNS(StageTick); got != wantTotal {
		t.Fatalf("TotalNS(tick) = %d, want %d", got, wantTotal)
	}

	stats := r.Stats()
	byStage := map[string]StageStats{}
	for _, s := range stats {
		byStage[s.Stage] = s
	}
	tick, ok := byStage["tick"]
	if !ok {
		t.Fatalf("tick missing from stats: %v", stats)
	}
	if tick.MaxNS != int64(5*time.Millisecond) {
		t.Fatalf("tick MaxNS = %d", tick.MaxNS)
	}
	if tick.MeanNS != float64(wantTotal)/5 {
		t.Fatalf("tick MeanNS = %g", tick.MeanNS)
	}
	if exp := byStage["export"]; exp.Errors != 1 || exp.Count != 0 {
		t.Fatalf("export stats = %+v", exp)
	}
	if _, ok := byStage["ingest"]; ok {
		t.Fatal("untouched stage should be omitted")
	}

	spans := r.Spans(nil)
	if len(spans) != 6 {
		t.Fatalf("Spans returned %d entries, want 6", len(spans))
	}
	if spans[0].Stage != StageTick || spans[0].StartNS != base.UnixNano() {
		t.Fatalf("oldest span = %+v", spans[0])
	}
	if last := spans[len(spans)-1]; last.Stage != StageScan {
		t.Fatalf("newest span = %+v", last)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.RecordNS(StageTick, int64(i), int64(i))
	}
	spans := r.Spans(nil)
	if len(spans) != 4 {
		t.Fatalf("wrapped ring returned %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := int64(6 + i); sp.StartNS != want {
			t.Fatalf("spans[%d].StartNS = %d, want %d", i, sp.StartNS, want)
		}
	}
	if got := r.Count(StageTick); got != 10 {
		t.Fatalf("Count survives ring wrap: got %d, want 10", got)
	}
}

func TestRecorderNegativeDurationClamped(t *testing.T) {
	r := NewRecorder(4)
	r.RecordNS(StageTick, 5, -17)
	if got := r.TotalNS(StageTick); got != 0 {
		t.Fatalf("TotalNS = %d, want 0 (negative clamped)", got)
	}
	if spans := r.Spans(nil); len(spans) != 1 || spans[0].DurNS != 0 {
		t.Fatalf("spans = %+v", spans)
	}
}

// TestRecorderConcurrent drives several writers against a reader; under
// `go test -race` this proves the seqlock ring is race-clean, and the
// assertions prove readers never observe torn or invalid spans.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			st := Stage(w % int(numStages))
			for i := 0; i < perWriter; i++ {
				r.RecordNS(st, int64(i), int64(i%100))
			}
		}(w)
	}

	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		buf := make([]Span, 0, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf = r.Spans(buf[:0])
			for _, sp := range buf {
				if sp.Stage >= numStages {
					t.Errorf("torn span: stage %d", sp.Stage)
					return
				}
				if sp.DurNS < 0 || sp.DurNS >= 100 {
					t.Errorf("torn span: dur %d", sp.DurNS)
					return
				}
			}
			r.Stats()
		}
	}()

	wg.Wait()
	close(stop)
	readerWG.Wait()

	var total uint64
	for st := Stage(0); st < numStages; st++ {
		total += r.Count(st)
	}
	if total != writers*perWriter {
		t.Fatalf("recorded %d spans, want %d", total, writers*perWriter)
	}
}

// TestRecordSkipsClaimedSlot: a Record landing on a slot another writer
// still owns (odd sequence) must drop the span body instead of co-writing
// it — co-writes are how a reader could validate a torn span.
func TestRecordSkipsClaimedSlot(t *testing.T) {
	r := NewRecorder(1) // single-slot ring: every Record collides on slot 0
	r.slots[0].seq.Store(1)
	r.RecordNS(StageTick, 5, 7)
	if got := r.DroppedSpans(); got != 1 {
		t.Fatalf("DroppedSpans = %d, want 1", got)
	}
	if got := r.Count(StageTick); got != 1 {
		t.Fatalf("Count = %d, want 1 (stats still account dropped spans)", got)
	}
	if spans := r.Spans(nil); len(spans) != 0 {
		t.Fatalf("claimed slot yielded spans %+v", spans)
	}
	if got := r.slots[0].seq.Load(); got != 1 {
		t.Fatalf("losing writer mutated the claimed slot's seq: %d", got)
	}

	// Once the owning writer releases the slot (even sequence), recording
	// works again.
	r.slots[0].seq.Store(2)
	r.RecordNS(StageScan, 9, 3)
	spans := r.Spans(nil)
	if len(spans) != 1 || spans[0].Stage != StageScan || spans[0].StartNS != 9 {
		t.Fatalf("spans after release = %+v", spans)
	}
	if got := r.DroppedSpans(); got != 1 {
		t.Fatalf("DroppedSpans after release = %d, want still 1", got)
	}
}

// TestRecorderConcurrentTinyRing hammers a 2-slot ring with writers whose
// spans all satisfy start==dur: constant wrap collisions exercise the CAS
// slot claim, and any span violating the invariant is a torn read.
func TestRecorderConcurrentTinyRing(t *testing.T) {
	r := NewRecorder(2)
	const writers = 8
	const perWriter = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i)
				r.RecordNS(StageTick, v, v)
			}
		}(w)
	}

	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		buf := make([]Span, 0, 2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf = r.Spans(buf[:0])
			for _, sp := range buf {
				if sp.StartNS != sp.DurNS {
					t.Errorf("torn span: start %d != dur %d", sp.StartNS, sp.DurNS)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := r.Count(StageTick); got != writers*perWriter {
		t.Fatalf("Count = %d, want %d (drops must still hit stats)", got, writers*perWriter)
	}
}

func TestOverhead(t *testing.T) {
	if got := Overhead(0.5, 0.1, 100); got != 0.5 {
		t.Fatalf("Overhead = %g, want 0.5 (self-CPU dominates)", got)
	}
	if got := Overhead(0.1, 0.5, 100); got != 0.5 {
		t.Fatalf("Overhead = %g, want 0.5 (tick wall dominates)", got)
	}
	if got := Overhead(1, 1, 0); got != 0 {
		t.Fatalf("Overhead with zero elapsed = %g, want 0", got)
	}
}

func TestBudgetExceeded(t *testing.T) {
	on := Budget{Enabled: true}
	cases := []struct {
		name  string
		b     Budget
		stats SelfStats
		want  bool
	}{
		{"disabled", Budget{}, SelfStats{Samples: 100, OverheadPct: 99}, false},
		{"warming up", on, SelfStats{Samples: 2, OverheadPct: 99}, false},
		{"under budget", on, SelfStats{Samples: 100, OverheadPct: 0.4}, false},
		{"at budget", on, SelfStats{Samples: 100, OverheadPct: 0.5}, false},
		{"over budget", on, SelfStats{Samples: 100, OverheadPct: 0.6}, true},
		{"degraded out", on, SelfStats{Samples: 100, OverheadPct: 99, Degradations: DefaultMaxDegrade}, false},
		{"custom ceiling", Budget{Enabled: true, MaxPct: 5}, SelfStats{Samples: 100, OverheadPct: 4}, false},
		{"custom ceiling hit", Budget{Enabled: true, MaxPct: 5}, SelfStats{Samples: 100, OverheadPct: 6}, true},
	}
	for _, tc := range cases {
		if got := tc.b.Exceeded(tc.stats); got != tc.want {
			t.Errorf("%s: Exceeded = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDumpRoundTrip(t *testing.T) {
	r := NewRecorder(8)
	r.Record(StageTick, time.Unix(10, 0), 2*time.Millisecond)
	r.Record(StageScan, time.Unix(10, 0), time.Millisecond)
	r.RecordError(StageIngest)
	self := &SelfStats{
		Samples: 1, SelfCPUSec: 0.01, TickWallSec: 0.002, ElapsedSec: 10,
		OverheadPct: 0.1, BudgetPct: 0.5, PeriodSec: 1,
	}
	d := BuildDump("test", r, self)
	data, err := EncodeDump(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDump(data)
	if err != nil {
		t.Fatalf("DecodeDump of own output: %v", err)
	}
	if got.Name != "test" || len(got.Spans) != 2 || got.Self == nil {
		t.Fatalf("decoded dump = %+v", got)
	}
	if got.Self.OverheadPct != 0.1 {
		t.Fatalf("Self = %+v", got.Self)
	}

	// The re-encode of a decode must be byte-identical: DecodeDump
	// validated everything EncodeDump writes.
	again, err := EncodeDump(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("re-encode differs:\n %s\n %s", data, again)
	}
}

// TestDumpReportsDroppedSpans forces one ring-slot collision and checks
// that /debug/obs says the ring lost a span body, which its spans alone
// cannot show.
func TestDumpReportsDroppedSpans(t *testing.T) {
	r := NewRecorder(2)
	r.slots[0].seq.Store(1) // a writer holds slot 0 mid-write
	r.RecordNS(StageTick, 5, 7)
	r.RecordNS(StageScan, 9, 3)
	data, err := EncodeDump(BuildDump("test", r, nil))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Spans        []SpanJSON `json:"spans"`
		DroppedSpans *uint64    `json:"dropped_spans"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.DroppedSpans == nil || *got.DroppedSpans != 1 || len(got.Spans) != 1 {
		t.Fatalf("dump %s: want dropped_spans 1 beside 1 span", data)
	}

	// A ring that never collided leaves the field out.
	data, err = EncodeDump(BuildDump("test", NewRecorder(2), nil))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "dropped_spans") {
		t.Fatalf("clean dump %s mentions dropped_spans", data)
	}
}

func TestDecodeDumpRejects(t *testing.T) {
	bad := []struct {
		name string
		doc  string
	}{
		{"not json", `{`},
		{"unknown stat stage", `{"name":"x","stats":[{"stage":"warp","count":1,"total_ns":1,"max_ns":1}]}`},
		{"duplicate stat stage", `{"name":"x","stats":[{"stage":"tick","count":1,"total_ns":1,"max_ns":1},{"stage":"tick","count":1,"total_ns":1,"max_ns":1}]}`},
		{"empty stat entry", `{"name":"x","stats":[{"stage":"tick"}]}`},
		{"negative total", `{"name":"x","stats":[{"stage":"tick","count":1,"total_ns":-1}]}`},
		{"max over total", `{"name":"x","stats":[{"stage":"tick","count":1,"total_ns":5,"max_ns":9}]}`},
		{"errors with duration", `{"name":"x","stats":[{"stage":"tick","errors":1,"total_ns":5,"max_ns":1}]}`},
		{"unknown span stage", `{"name":"x","spans":[{"stage":"warp","start_ns":0,"dur_ns":0}]}`},
		{"negative span dur", `{"name":"x","spans":[{"stage":"tick","start_ns":0,"dur_ns":-1}]}`},
		{"negative self samples", `{"name":"x","self":{"samples":-1}}`},
		{"negative self cpu", `{"name":"x","self":{"samples":1,"self_cpu_sec":-0.5}}`},
	}
	for _, tc := range bad {
		if _, err := DecodeDump([]byte(tc.doc)); err == nil {
			t.Errorf("%s: DecodeDump accepted %s", tc.name, tc.doc)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRecorder(8)
	r.Record(StageIngest, time.Unix(1, 0), time.Millisecond)
	h := Handler("zsaggd", r, nil)

	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	d, err := DecodeDump(body)
	if err != nil {
		t.Fatalf("handler served invalid dump: %v\n%s", err, body)
	}
	if d.Name != "zsaggd" || len(d.Spans) != 1 || d.Self != nil {
		t.Fatalf("dump = %+v", d)
	}

	// Self stats are fetched per request when a selfFn is wired.
	calls := 0
	hs := Handler("zsrun", r, func() SelfStats {
		calls++
		return SelfStats{Samples: calls}
	})
	for want := 1; want <= 2; want++ {
		req := httptest.NewRequest(http.MethodGet, "/debug/obs", nil)
		rec := httptest.NewRecorder()
		hs.ServeHTTP(rec, req)
		var d Dump
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		if d.Self == nil || d.Self.Samples != want {
			t.Fatalf("request %d: self = %+v", want, d.Self)
		}
	}

	// Non-GET is refused.
	req := httptest.NewRequest(http.MethodPost, "/debug/obs", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", rec.Code)
	}
}
