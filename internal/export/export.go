// Package export handles ZeroSum's data-out paths (paper §3.6): per-process
// CSV dumps of every periodic sample (for time-series analysis and the
// Figure 6/7 charts) and an in-process publish/subscribe stream standing in
// for integrations with data services such as LDMS or ADIOS2 (paper §6).
package export

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// LWPSample is one periodic observation of one thread, matching the CSV
// field list the paper describes: state, utilization split, context
// switches, page faults, pages swapped, and the CPU the LWP last ran on.
type LWPSample struct {
	TimeSec float64 //zerosum:nowire carried by the enclosing Event frame header
	TID     int
	Kind    string // Main, OpenMP, ZeroSum, Other
	State   byte   // R, S, D, Z...
	UserPct float64
	SysPct  float64
	VCtx    uint64 // cumulative voluntary context switches
	NVCtx   uint64 // cumulative non-voluntary context switches
	MinFlt  uint64
	MajFlt  uint64
	NSwap   uint64
	CPU     int  // processor the LWP last executed on
	Stalled bool // §3.3 progress detection: no beat for Config.StallTicks samples
}

// HWTSample is one periodic observation of one hardware thread.
type HWTSample struct {
	TimeSec float64 //zerosum:nowire carried by the enclosing Event frame header
	CPU     int
	IdlePct float64
	SysPct  float64
	UserPct float64
}

// GPUSample is one periodic observation of one GPU metric.
type GPUSample struct {
	TimeSec float64 //zerosum:nowire carried by the enclosing Event frame header
	GPU     int
	Metric  string
	Value   float64
}

// MemSample is one periodic observation of system and process memory.
type MemSample struct {
	TimeSec   float64 //zerosum:nowire carried by the enclosing Event frame header
	TotalKB   uint64
	FreeKB    uint64
	AvailKB   uint64
	ProcRSSKB uint64
	ProcHWMKB uint64
}

// IOSample is one periodic observation of the process's cumulative I/O
// counters from /proc/<pid>/io.
type IOSample struct {
	TimeSec    float64 //zerosum:nowire carried by the enclosing Event frame header
	RChar      uint64
	WChar      uint64
	SyscR      uint64
	SyscW      uint64
	ReadBytes  uint64
	WriteBytes uint64
}

// Column headers for each CSV section.
var (
	LWPHeader = []string{"time", "tid", "kind", "state", "user_pct", "sys_pct",
		"vctx", "nvctx", "minflt", "majflt", "nswap", "cpu", "stalled"}
	HWTHeader = []string{"time", "cpu", "idle_pct", "sys_pct", "user_pct"}
	GPUHeader = []string{"time", "gpu", "metric", "value"}
	MemHeader = []string{"time", "total_kb", "free_kb", "avail_kb", "rss_kb", "hwm_kb"}
)

var commHeader = []string{"dst", "src", "bytes"}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
func u(v uint64) string  { return strconv.FormatUint(v, 10) }
func i(v int) string     { return strconv.Itoa(v) }

func b(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

// CSVSink writes the per-process CSV logs (§3.6) from a stream: one row
// per LWP, HWT, GPU or Mem event, to the writer given for that kind. It
// holds no samples, so a monitor that logs for days holds no more than one
// that logs for a second. Each kind's header is written at creation, so a
// kind that never gets a row still yields a file with its header. After
// the first write error the sink only discards; Close reports that error.
// Its events must arrive one at a time, as one monitor publishes them.
type CSVSink struct {
	w   [EventMem + 1]*csv.Writer // by EventKind; nil: the kind is not logged
	rec []string
	err error
}

// NewCSVSink starts a sink; a nil writer skips that kind's events.
func NewCSVSink(lwp, hwt, gpu, mem io.Writer) *CSVSink {
	s := &CSVSink{}
	headers := [...][]string{EventLWP: LWPHeader, EventHWT: HWTHeader, EventGPU: GPUHeader, EventMem: MemHeader}
	for k, w := range [...]io.Writer{EventLWP: lwp, EventHWT: hwt, EventGPU: gpu, EventMem: mem} {
		if w != nil && s.err == nil {
			s.w[k] = csv.NewWriter(w)
			s.err = s.w[k].Write(headers[k])
		}
	}
	return s
}

// Subscriber returns the stream callback. Payloads are formatted before it
// returns, so the stream's borrowed pointers are never kept.
func (s *CSVSink) Subscriber() Subscriber {
	return func(ev Event) {
		if uint(ev.Kind) >= uint(len(s.w)) || s.w[ev.Kind] == nil || s.err != nil {
			return
		}
		switch ev.Kind {
		case EventLWP:
			l := ev.LWP
			s.rec = append(s.rec[:0], f(l.TimeSec), i(l.TID), l.Kind, string(l.State),
				f(l.UserPct), f(l.SysPct), u(l.VCtx), u(l.NVCtx),
				u(l.MinFlt), u(l.MajFlt), u(l.NSwap), i(l.CPU), b(l.Stalled))
		case EventHWT:
			h := ev.HWT
			s.rec = append(s.rec[:0], f(h.TimeSec), i(h.CPU), f(h.IdlePct), f(h.SysPct), f(h.UserPct))
		case EventGPU:
			g := ev.GPU
			s.rec = append(s.rec[:0], f(g.TimeSec), i(g.GPU), g.Metric, f(g.Value))
		case EventMem:
			m := ev.Mem
			s.rec = append(s.rec[:0], f(m.TimeSec), u(m.TotalKB), u(m.FreeKB), u(m.AvailKB), u(m.ProcRSSKB), u(m.ProcHWMKB))
		}
		s.err = s.w[ev.Kind].Write(s.rec)
	}
}

// Close flushes every kind's writer and reports the first error the sink
// met. It does not close the underlying writers.
func (s *CSVSink) Close() error {
	for _, cw := range s.w {
		if cw != nil && s.err == nil {
			cw.Flush()
			s.err = cw.Error()
		}
	}
	return s.err
}

// ReadLWPCSV parses a CSVSink's LWP log.
func ReadLWPCSV(r io.Reader) ([]LWPSample, error) {
	return readRows(r, LWPHeader, "lwp", func(c *cells) LWPSample {
		s := LWPSample{TimeSec: c.f(0), TID: c.i(1), Kind: c.rec[2]}
		if len(c.rec[3]) > 0 {
			s.State = c.rec[3][0]
		}
		s.UserPct, s.SysPct = c.f(4), c.f(5)
		s.VCtx, s.NVCtx = c.u(6), c.u(7)
		s.MinFlt, s.MajFlt, s.NSwap = c.u(8), c.u(9), c.u(10)
		s.CPU = c.i(11)
		s.Stalled = c.rec[12] == "1"
		return s
	})
}

// ReadHWTCSV parses a CSVSink's HWT log.
func ReadHWTCSV(r io.Reader) ([]HWTSample, error) {
	return readRows(r, HWTHeader, "hwt", func(c *cells) HWTSample {
		return HWTSample{
			TimeSec: c.f(0), CPU: c.i(1),
			IdlePct: c.f(2), SysPct: c.f(3), UserPct: c.f(4),
		}
	})
}

// ReadMemCSV parses a CSVSink's memory log.
func ReadMemCSV(r io.Reader) ([]MemSample, error) {
	return readRows(r, MemHeader, "mem", func(c *cells) MemSample {
		return MemSample{
			TimeSec: c.f(0), TotalKB: c.u(1), FreeKB: c.u(2),
			AvailKB: c.u(3), ProcRSSKB: c.u(4), ProcHWMKB: c.u(5),
		}
	})
}

// WriteCommCSV writes the MPI point-to-point matrix as dst,src,bytes rows.
func WriteCommCSV(w io.Writer, matrix [][]uint64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(commHeader); err != nil {
		return err
	}
	for d, row := range matrix {
		for s, v := range row {
			if v == 0 {
				continue
			}
			if err := cw.Write([]string{i(d), i(s), u(v)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCommCSV rebuilds a size x size matrix from WriteCommCSV output.
func ReadCommCSV(r io.Reader, size int) ([][]uint64, error) {
	if size < 0 {
		return nil, fmt.Errorf("export: negative comm matrix size %d", size)
	}
	m := make([][]uint64, size)
	for d := range m {
		m[d] = make([]uint64, size)
	}
	_, err := readRows(r, commHeader, "comm", func(c *cells) struct{} {
		d, s, v := c.i(0), c.i(1), c.u(2)
		if c.err == nil && (d < 0 || d >= size || s < 0 || s >= size) {
			c.err = fmt.Errorf("export: comm entry (%d,%d) outside %dx%d", d, s, size, size)
		}
		if c.err == nil {
			m[d][s] = v
		}
		return struct{}{}
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// readRows reads a CSV whose first row is a header as wide as header and
// parses every later row with row. The first cell row cannot parse fails
// the read with an error naming the kind, the row (1-based, counting data
// rows after the header) and the column.
func readRows[T any](r io.Reader, header []string, what string, row func(*cells) T) ([]T, error) {
	all, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("export: read %s csv: %w", what, err)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("export: %s csv is empty", what)
	}
	if len(all[0]) != len(header) {
		return nil, fmt.Errorf("export: %s csv has %d columns, want %d", what, len(all[0]), len(header))
	}
	out := make([]T, 0, len(all)-1)
	c := cells{what: what, header: header}
	for n, rec := range all[1:] {
		c.row, c.rec = n+1, rec
		v := row(&c)
		if c.err != nil {
			return nil, c.err
		}
		out = append(out, v)
	}
	return out, nil
}

// cells parses the cells of one CSV row and keeps the first failure.
type cells struct {
	what   string
	header []string
	row    int
	rec    []string
	err    error
}

func (c *cells) fail(col int, err error) {
	if err != nil && c.err == nil {
		c.err = fmt.Errorf("export: %s csv row %d, column %s: %w", c.what, c.row, c.header[col], err)
	}
}

func (c *cells) f(col int) float64 {
	v, err := strconv.ParseFloat(c.rec[col], 64)
	c.fail(col, err)
	return v
}

func (c *cells) i(col int) int {
	v, err := strconv.Atoi(c.rec[col])
	c.fail(col, err)
	return v
}

func (c *cells) u(col int) uint64 {
	v, err := strconv.ParseUint(c.rec[col], 10, 64)
	c.fail(col, err)
	return v
}
