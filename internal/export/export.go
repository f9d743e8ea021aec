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
	IOHeader  = []string{"time", "rchar", "wchar", "syscr", "syscw", "read_bytes", "write_bytes"}
)

func f(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
func u(v uint64) string  { return strconv.FormatUint(v, 10) }
func i(v int) string     { return strconv.Itoa(v) }

func b(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

// WriteLWPCSV writes the thread samples with a header row.
func WriteLWPCSV(w io.Writer, samples []LWPSample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(LWPHeader); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{f(s.TimeSec), i(s.TID), s.Kind, string(s.State),
			f(s.UserPct), f(s.SysPct), u(s.VCtx), u(s.NVCtx),
			u(s.MinFlt), u(s.MajFlt), u(s.NSwap), i(s.CPU), b(s.Stalled)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadLWPCSV parses what WriteLWPCSV wrote.
func ReadLWPCSV(r io.Reader) ([]LWPSample, error) {
	rows, err := readRows(r, len(LWPHeader), "lwp")
	if err != nil {
		return nil, err
	}
	out := make([]LWPSample, 0, len(rows))
	for _, rec := range rows {
		var s LWPSample
		s.TimeSec = pf(rec[0])
		s.TID = pi(rec[1])
		s.Kind = rec[2]
		if len(rec[3]) > 0 {
			s.State = rec[3][0]
		}
		s.UserPct, s.SysPct = pf(rec[4]), pf(rec[5])
		s.VCtx, s.NVCtx = pu(rec[6]), pu(rec[7])
		s.MinFlt, s.MajFlt, s.NSwap = pu(rec[8]), pu(rec[9]), pu(rec[10])
		s.CPU = pi(rec[11])
		s.Stalled = rec[12] == "1"
		out = append(out, s)
	}
	return out, nil
}

// WriteHWTCSV writes the hardware-thread samples.
func WriteHWTCSV(w io.Writer, samples []HWTSample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(HWTHeader); err != nil {
		return err
	}
	for _, s := range samples {
		if err := cw.Write([]string{f(s.TimeSec), i(s.CPU), f(s.IdlePct), f(s.SysPct), f(s.UserPct)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadHWTCSV parses what WriteHWTCSV wrote.
func ReadHWTCSV(r io.Reader) ([]HWTSample, error) {
	rows, err := readRows(r, len(HWTHeader), "hwt")
	if err != nil {
		return nil, err
	}
	out := make([]HWTSample, 0, len(rows))
	for _, rec := range rows {
		out = append(out, HWTSample{
			TimeSec: pf(rec[0]), CPU: pi(rec[1]),
			IdlePct: pf(rec[2]), SysPct: pf(rec[3]), UserPct: pf(rec[4]),
		})
	}
	return out, nil
}

// WriteGPUCSV writes the GPU metric samples.
func WriteGPUCSV(w io.Writer, samples []GPUSample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(GPUHeader); err != nil {
		return err
	}
	for _, s := range samples {
		if err := cw.Write([]string{f(s.TimeSec), i(s.GPU), s.Metric, f(s.Value)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMemCSV writes the memory samples.
func WriteMemCSV(w io.Writer, samples []MemSample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(MemHeader); err != nil {
		return err
	}
	for _, s := range samples {
		if err := cw.Write([]string{f(s.TimeSec), u(s.TotalKB), u(s.FreeKB), u(s.AvailKB), u(s.ProcRSSKB), u(s.ProcHWMKB)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadMemCSV parses what WriteMemCSV wrote.
func ReadMemCSV(r io.Reader) ([]MemSample, error) {
	rows, err := readRows(r, len(MemHeader), "mem")
	if err != nil {
		return nil, err
	}
	out := make([]MemSample, 0, len(rows))
	for _, rec := range rows {
		out = append(out, MemSample{
			TimeSec: pf(rec[0]), TotalKB: pu(rec[1]), FreeKB: pu(rec[2]),
			AvailKB: pu(rec[3]), ProcRSSKB: pu(rec[4]), ProcHWMKB: pu(rec[5]),
		})
	}
	return out, nil
}

// WriteIOCSV writes the process I/O samples.
func WriteIOCSV(w io.Writer, samples []IOSample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(IOHeader); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{f(s.TimeSec), u(s.RChar), u(s.WChar), u(s.SyscR), u(s.SyscW), u(s.ReadBytes), u(s.WriteBytes)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadIOCSV parses what WriteIOCSV wrote.
func ReadIOCSV(r io.Reader) ([]IOSample, error) {
	rows, err := readRows(r, len(IOHeader), "io")
	if err != nil {
		return nil, err
	}
	out := make([]IOSample, 0, len(rows))
	for _, rec := range rows {
		out = append(out, IOSample{
			TimeSec: pf(rec[0]), RChar: pu(rec[1]), WChar: pu(rec[2]),
			SyscR: pu(rec[3]), SyscW: pu(rec[4]),
			ReadBytes: pu(rec[5]), WriteBytes: pu(rec[6]),
		})
	}
	return out, nil
}

// WriteCommCSV writes the MPI point-to-point matrix as dst,src,bytes rows.
func WriteCommCSV(w io.Writer, matrix [][]uint64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dst", "src", "bytes"}); err != nil {
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
	rows, err := readRows(r, 3, "comm")
	if err != nil {
		return nil, err
	}
	m := make([][]uint64, size)
	for d := range m {
		m[d] = make([]uint64, size)
	}
	for _, rec := range rows {
		d, s := pi(rec[0]), pi(rec[1])
		if d < 0 || d >= size || s < 0 || s >= size {
			return nil, fmt.Errorf("export: comm entry (%d,%d) outside %dx%d", d, s, size, size)
		}
		m[d][s] = pu(rec[2])
	}
	return m, nil
}

func readRows(r io.Reader, width int, what string) ([][]string, error) {
	cr := csv.NewReader(r)
	all, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("export: read %s csv: %w", what, err)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("export: %s csv is empty", what)
	}
	if len(all[0]) != width {
		return nil, fmt.Errorf("export: %s csv has %d columns, want %d", what, len(all[0]), width)
	}
	return all[1:], nil
}

func pf(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

func pi(s string) int {
	v, _ := strconv.Atoi(s)
	return v
}

func pu(s string) uint64 {
	v, _ := strconv.ParseUint(s, 10, 64)
	return v
}
