package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call the benchmark made into the pipeline, timed from
// outside. Spans of a run share its workload; parent is the index of the
// enclosing span in the same file, -1 for the run itself.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the run's first span
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs stay untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{}
}

// add records a completed span under the run span (index 0).
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.spans == nil {
		t.t0 = start
		t.spans = append(t.spans, span{Name: "run", Parent: -1})
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0))})
	if e := int64(end.Sub(t.t0)); e > t.spans[0].EndNS {
		t.spans[0].EndNS = e
	}
	t.mu.Unlock()
}

// writeSpans saves a traced run's spans as dir/trace_<workload>.json.
func writeSpans(dir string, res *result) error {
	if len(res.spans) == 0 {
		return nil
	}
	for i := range res.spans {
		res.spans[i].Workload = res.workload
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(res.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace_%s.json", res.workload))
	return os.WriteFile(path, data, 0o644)
}
