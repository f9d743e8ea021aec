package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json; bench_test.go holds the two in
// agreement. better and bound are only set for end-to-end metrics.
type metricDef struct {
	name, unit string
	better     string  // "higher" or "lower"
	bound      float64 // share of the median a later change may worsen it by
	// hostExp says how the metric moves with the host's speed: +1 a time, -1
	// a rate, 0 not at all. It is reported × host.speed_x to that power, that
	// is, as it would read on the reference host (yardstick.go).
	hostExp float64
}

// endToEnd is what a user of the pipeline sees. Every workload reports every
// one, measured with tracing off. README.md defines each per workload and
// says where the bounds come from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 1},
	{"tick_us_p50", "us", "lower", 0.25, 1},
	{"events_per_s", "1/s", "higher", 0.25, -1},
	{"cpu_us_per_event", "us", "lower", 0.25, 1},
	{"fresh_ms_p50", "ms", "lower", 0.25, 1},
	{"query_ms_p50", "ms", "lower", 0.25, 1},
	{"wire_bytes_per_event", "B", "lower", 0.10, 0},
	{"live_heap_mb", "MiB", "lower", 0.20, 0},
}

func endToEndDef(name string) metricDef {
	for _, d := range endToEnd {
		if d.name == name {
			return d
		}
	}
	panic("bench: no end-to-end metric " + name)
}

// perLayer is the ledger's vocabulary: one layer per prefix, the layers
// being this repository's packages. A workload that does not exercise a
// metric reports 0. The first block are the issue's end-to-end candidates
// that live here under their own names: three percentiles whose spread
// across same-commit runs no bound the driver allows would hold (README.md),
// and failed_frac, which is 0 on every good run and so cannot be one.
var perLayer = []metricDef{
	{name: "tick_us_p99", unit: "us"},
	{name: "fresh_ms_p99", unit: "ms"},
	{name: "query_ms_p99", unit: "ms"},
	{name: "failed_frac", unit: "ratio"},

	{name: "proc.read_ns_per_file", unit: "ns"},
	{name: "proc.realfs_read_ns_per_file", unit: "ns"},
	{name: "proc.parse_ns_per_file", unit: "ns"},
	{name: "proc.files_per_tick", unit: "count"},
	{name: "proc.bytes_per_tick", unit: "B"},

	{name: "core.tick_ns_per_lwp", unit: "ns"},
	{name: "core.events_per_tick", unit: "count"},
	{name: "core.self_ns_per_tick", unit: "ns"},
	{name: "core.allocs_per_tick", unit: "count"},
	{name: "core.sample_skips", unit: "count"},

	{name: "export.publish_ns_per_event", unit: "ns"},

	{name: "aggd.agent.enqueue_ns_per_event", unit: "ns"},
	{name: "aggd.agent.batches", unit: "count"},
	{name: "aggd.agent.events_per_batch", unit: "count"},
	{name: "aggd.agent.retries", unit: "count"},
	{name: "aggd.agent.ring_drops", unit: "count"},
	{name: "aggd.agent.send_drops", unit: "count"},
	{name: "aggd.agent.ship_us_per_batch", unit: "us"},
	{name: "aggd.agent.window_wait_s", unit: "s"},

	{name: "aggd.wire.encode_ns_per_event", unit: "ns"},
	{name: "aggd.wire.decode_ns_per_event", unit: "ns"},
	{name: "aggd.wire.raw_bytes_per_event", unit: "B"},
	{name: "aggd.wire.gzip_ratio", unit: "ratio"},
	{name: "aggd.wire.gzip_ns_per_event", unit: "ns"},
	{name: "aggd.wire.gunzip_ns_per_event", unit: "ns"},

	{name: "aggd.server.ingest_us_per_batch", unit: "us"},
	{name: "aggd.server.ingest_batches", unit: "count"},
	{name: "aggd.server.dup_batches", unit: "count"},
	{name: "aggd.server.recovered", unit: "count"},
	{name: "aggd.server.ingest_errors", unit: "count"},
	{name: "aggd.server.jobs", unit: "count"},
	{name: "aggd.server.ranks", unit: "count"},
	{name: "aggd.server.merge_residual_ns_per_event", unit: "ns"},

	{name: "transport.hop1_bytes_per_event", unit: "B"},
	{name: "transport.hop2_bytes_per_event", unit: "B"},
	{name: "transport.requests", unit: "count"},
	{name: "transport.conns_accepted", unit: "count"},
	{name: "transport.rtt_residual_us_per_batch", unit: "us"},

	{name: "aggd.forward.rollups", unit: "count"},
	{name: "aggd.forward.events_per_rollup", unit: "count"},
	{name: "aggd.forward.pending_events_max", unit: "count"},
	{name: "aggd.forward.dropped_events", unit: "count"},
	{name: "aggd.forward.retries", unit: "count"},
	{name: "aggd.forward.drain_s", unit: "s"},
	{name: "aggd.rollup.encode_ns_per_event", unit: "ns"},
	{name: "aggd.rollup.decode_ns_per_event", unit: "ns"},
	{name: "aggd.rollup.allocs_per_frame", unit: "count"},

	{name: "tsdb.append_ns_per_sample", unit: "ns"},
	{name: "tsdb.samples", unit: "count"},
	{name: "tsdb.series", unit: "count"},
	{name: "tsdb.bytes_per_sample", unit: "B"},
	{name: "tsdb.query_ns_per_point", unit: "ns"},
	{name: "tsdb.points_per_query", unit: "count"},

	{name: "aggd.query.latest_ms_p50", unit: "ms"},
	{name: "aggd.query.range_ms_p50", unit: "ms"},
	{name: "aggd.query.topk_ms_p50", unit: "ms"},
	{name: "aggd.query.heatmap_ms_p50", unit: "ms"},
	{name: "aggd.query.http_overhead_us", unit: "us"},

	{name: "go.alloc_bytes_per_event", unit: "B"},
	{name: "go.mallocs_per_event", unit: "count"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_cpu_frac", unit: "ratio"},
	{name: "go.peak_heap_mb", unit: "MiB"},

	{name: "gen.headroom_x", unit: "ratio"},
	{name: "gen.late_ms_p99", unit: "ms"},
	{name: "obs.trace_overhead_frac", unit: "ratio"},

	{name: "host.speed_x", unit: "ratio"},
	{name: "host.setup_speed_x", unit: "ratio"},
}

// samples collects one timing per operation; percentiles come from the
// whole set, never from a running estimate.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// pct returns the q-quantile (0..1) by nearest rank, 0 for an empty set.
func (s samples) pct(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func (s samples) sum() (t float64) {
	for _, v := range s {
		t += v
	}
	return t
}

// result is one run of one workload: its metrics by name as measured, the
// sample count behind each percentile, and the books.
type result struct {
	workload  string
	traced    bool
	inputSHA  string
	values    map[string]float64
	paced     map[string]bool // end-to-end metrics the workload's schedule sets, not the host's speed
	counts    map[string]int
	attempted uint64
	failed    uint64 // operations the pipeline lost, refused or got wrong
	voided    uint64 // self-checks that say the run measured the benchmark, not the pipeline
	failures  []string
	spans     []span
}

// bad is everything that makes the run incorrect.
func (r *result) bad() uint64 { return r.failed + r.voided }

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced,
		values: map[string]float64{}, paced: map[string]bool{}, counts: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// atRef is end-to-end metric d at reference speed: as measured, times the
// host's speed while it was measured to the power the metric moves with it.
// Per-layer metrics are always as measured.
func (r *result) atRef(d metricDef) float64 {
	v := r.values[d.name]
	switch {
	case d.hostExp == 0 || r.paced[d.name]:
		return v
	case d.name == "setup_s":
		return v * math.Pow(r.values["host.setup_speed_x"], d.hostExp)
	}
	return v * math.Pow(r.values["host.speed_x"], d.hostExp)
}

// setPct records a percentile together with the sample count behind it.
func (r *result) setPct(name string, s samples, q float64) {
	r.values[name] = s.pct(q)
	r.counts[name] = len(s)
}

// fail books n failed operations and keeps the first few reasons.
func (r *result) fail(n uint64, format string, args ...any) {
	if n == 0 {
		return
	}
	r.failed += n
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// void books a failed self-check: the generator, not the pipeline, set the
// numbers, so they must not be used.
func (r *result) void(format string, args ...any) {
	r.voided++
	r.failures = append(r.failures, "void: "+fmt.Sprintf(format, args...))
}

// ratio is a/b, 0 when b is 0: a metric whose layer did no work reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
