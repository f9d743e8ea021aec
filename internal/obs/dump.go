package obs

import (
	"encoding/json"
	"net/http"
)

// Dump is the /debug/obs document: who is reporting, the per-stage
// statistics, the most recent spans, and the self-cost accounting.
type Dump struct {
	// Name identifies the reporting component ("zsrun", "zsaggd", ...).
	Name string `json:"name"`
	// Stats is the cumulative per-stage accounting.
	Stats []StageStats `json:"stats,omitempty"`
	// Spans is the ring's current contents, oldest first.
	Spans []SpanJSON `json:"spans,omitempty"`
	// DroppedSpans counts span bodies the ring lost because their slot was
	// mid-write by a concurrent Record; their stage stats are still counted.
	DroppedSpans uint64 `json:"dropped_spans,omitempty"`
	// Self is the overhead accounting; nil for components (like the
	// aggregator) that do not monitor a victim process.
	Self *SelfStats `json:"self,omitempty"`
}

// SpanJSON is Span with the stage spelled out by name, the form external
// tooling consumes.
type SpanJSON struct {
	Stage   string `json:"stage"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// BuildDump assembles a Dump from a recorder and optional self stats.
// rec may be nil (empty stats/spans); self may be nil.
func BuildDump(name string, rec *Recorder, self *SelfStats) Dump {
	d := Dump{Name: name, Stats: rec.Stats(), DroppedSpans: rec.DroppedSpans(), Self: self}
	for _, sp := range rec.Spans(nil) {
		d.Spans = append(d.Spans, SpanJSON{
			Stage:   sp.Stage.String(),
			StartNS: sp.StartNS,
			DurNS:   sp.DurNS,
		})
	}
	return d
}

// EncodeDump renders d as JSON.
func EncodeDump(d Dump) ([]byte, error) {
	return json.Marshal(d)
}

// Handler serves the /debug/obs endpoint. selfFn may be nil; when set it
// is called per request so the self stats are current.
func Handler(name string, rec *Recorder, selfFn func() SelfStats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var self *SelfStats
		if selfFn != nil {
			s := selfFn()
			self = &s
		}
		body, err := EncodeDump(BuildDump(name, rec, self))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
}
