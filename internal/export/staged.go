package export

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The paper's future work (§6) calls for refactoring ZeroSum's log output
// onto the ADIOS2 time-series I/O staging library. This file implements a
// small self-contained staging format with the same shape as ADIOS2's BP
// streams: an append-only sequence of steps, each carrying named float64
// variable blocks, readable both after the fact and while being written.
//
// Layout (all little endian):
//
//	magic   "ZSBP1\n"
//	frame*  step:uint32  time:float64  nvars:uint32
//	        var*: nameLen:uint16 name  count:uint32  values:float64*
//
// The stream has no footer, so a crashed writer leaves a readable prefix.

var stagedMagic = []byte("ZSBP1\n")

// StagedWriter writes a step stream.
type StagedWriter struct {
	w     *bufio.Writer
	step  uint32
	open  bool
	time  float64
	names []string
	vars  map[string][]float64
	err   error
}

// NewStagedWriter starts a stream on w (the magic is written immediately).
func NewStagedWriter(w io.Writer) (*StagedWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(stagedMagic); err != nil {
		return nil, fmt.Errorf("export: staged magic: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("export: staged magic: %w", err)
	}
	return &StagedWriter{w: bw, vars: map[string][]float64{}}, nil
}

// BeginStep opens a step at the given time; steps may not nest.
func (s *StagedWriter) BeginStep(t float64) error {
	if s.err != nil {
		return s.err
	}
	if s.open {
		return fmt.Errorf("export: BeginStep with step %d still open", s.step)
	}
	s.open = true
	s.time = t
	s.names = s.names[:0]
	for k := range s.vars {
		delete(s.vars, k)
	}
	return nil
}

// Put appends values under name in the current step. Repeated Puts with the
// same name within a step append to the block.
func (s *StagedWriter) Put(name string, values ...float64) error {
	if s.err != nil {
		return s.err
	}
	if !s.open {
		return fmt.Errorf("export: Put(%q) outside a step", name)
	}
	if len(name) > 0xFFFF {
		return fmt.Errorf("export: variable name too long (%d bytes)", len(name))
	}
	if _, seen := s.vars[name]; !seen {
		s.names = append(s.names, name)
	}
	s.vars[name] = append(s.vars[name], values...)
	return nil
}

// EndStep serialises the frame.
func (s *StagedWriter) EndStep() error {
	if s.err != nil {
		return s.err
	}
	if !s.open {
		return fmt.Errorf("export: EndStep without a step")
	}
	s.open = false
	put := func(v any) {
		if s.err == nil {
			s.err = binary.Write(s.w, binary.LittleEndian, v)
		}
	}
	put(s.step)
	put(math.Float64bits(s.time))
	put(uint32(len(s.names)))
	// Deterministic variable order: insertion order, which callers keep
	// stable; names sorted here would also work but loses intent.
	for _, name := range s.names {
		put(uint16(len(name)))
		if s.err == nil {
			_, s.err = s.w.WriteString(name)
		}
		vals := s.vars[name]
		put(uint32(len(vals)))
		for _, v := range vals {
			put(math.Float64bits(v))
		}
	}
	s.step++
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// Steps returns how many steps have been completed.
func (s *StagedWriter) Steps() int { return int(s.step) }

// Step is one decoded frame.
type Step struct {
	Index uint32
	Time  float64
	Vars  map[string][]float64
}

// StagedReader reads a step stream.
type StagedReader struct {
	r *bufio.Reader
}

// NewStagedReader validates the magic and prepares to read steps.
func NewStagedReader(r io.Reader) (*StagedReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(stagedMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("export: staged magic: %w", err)
	}
	if string(magic) != string(stagedMagic) {
		return nil, fmt.Errorf("export: bad staged magic %q", magic)
	}
	return &StagedReader{r: br}, nil
}

// Next reads one step; io.EOF signals a clean end of stream.
func (sr *StagedReader) Next() (Step, error) {
	var st Step
	var step uint32
	if err := binary.Read(sr.r, binary.LittleEndian, &step); err != nil {
		if err == io.EOF {
			return st, io.EOF
		}
		return st, fmt.Errorf("export: staged step header: %w", err)
	}
	st.Index = step
	var tbits uint64
	if err := binary.Read(sr.r, binary.LittleEndian, &tbits); err != nil {
		return st, fmt.Errorf("export: staged time: %w", err)
	}
	st.Time = math.Float64frombits(tbits)
	var nvars uint32
	if err := binary.Read(sr.r, binary.LittleEndian, &nvars); err != nil {
		return st, fmt.Errorf("export: staged nvars: %w", err)
	}
	if nvars > 1<<20 {
		return st, fmt.Errorf("export: staged frame claims %d variables", nvars)
	}
	st.Vars = make(map[string][]float64, nvars)
	for i := uint32(0); i < nvars; i++ {
		var nameLen uint16
		if err := binary.Read(sr.r, binary.LittleEndian, &nameLen); err != nil {
			return st, fmt.Errorf("export: staged name len: %w", err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(sr.r, name); err != nil {
			return st, fmt.Errorf("export: staged name: %w", err)
		}
		var count uint32
		if err := binary.Read(sr.r, binary.LittleEndian, &count); err != nil {
			return st, fmt.Errorf("export: staged count: %w", err)
		}
		if count > 1<<28 {
			return st, fmt.Errorf("export: staged block claims %d values", count)
		}
		vals := make([]float64, count)
		for j := range vals {
			var bits uint64
			if err := binary.Read(sr.r, binary.LittleEndian, &bits); err != nil {
				return st, fmt.Errorf("export: staged value: %w", err)
			}
			vals[j] = math.Float64frombits(bits)
		}
		st.Vars[string(name)] = vals
	}
	return st, nil
}

// ReadAllSteps drains the stream.
func (sr *StagedReader) ReadAllSteps() ([]Step, error) {
	var out []Step
	for {
		st, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
}

// StagedSink bridges the in-process Stream onto a staged writer: every
// heartbeat-to-heartbeat window of samples becomes one step, with per-kind
// variable blocks — the LDMS/ADIOS2 integration point from §6.
type StagedSink struct {
	w        *StagedWriter
	lastTime float64
	dirty    bool
	err      error
}

// NewStagedSink wraps a writer.
func NewStagedSink(w *StagedWriter) *StagedSink { return &StagedSink{w: w, lastTime: -1} }

// Subscriber returns the Stream callback. Samples sharing a timestamp are
// grouped into one step; a new timestamp closes the previous step.
func (s *StagedSink) Subscriber() Subscriber {
	return func(ev Event) {
		if s.err != nil {
			return
		}
		if ev.TimeSec != s.lastTime {
			if s.dirty {
				s.err = s.w.EndStep()
				if s.err != nil {
					return
				}
			}
			s.err = s.w.BeginStep(ev.TimeSec)
			if s.err != nil {
				return
			}
			s.lastTime = ev.TimeSec
			s.dirty = true
		}
		switch ev.Kind {
		case EventLWP:
			l := ev.LWP
			s.put(fmt.Sprintf("lwp.%d.user_pct", l.TID), l.UserPct)
			s.put(fmt.Sprintf("lwp.%d.sys_pct", l.TID), l.SysPct)
			s.put(fmt.Sprintf("lwp.%d.nvctx", l.TID), float64(l.NVCtx))
			s.put(fmt.Sprintf("lwp.%d.vctx", l.TID), float64(l.VCtx))
			s.put(fmt.Sprintf("lwp.%d.cpu", l.TID), float64(l.CPU))
		case EventHWT:
			h := ev.HWT
			s.put(fmt.Sprintf("hwt.%d.user_pct", h.CPU), h.UserPct)
			s.put(fmt.Sprintf("hwt.%d.sys_pct", h.CPU), h.SysPct)
			s.put(fmt.Sprintf("hwt.%d.idle_pct", h.CPU), h.IdlePct)
		case EventGPU:
			g := ev.GPU
			s.put(fmt.Sprintf("gpu.%d.%s", g.GPU, g.Metric), g.Value)
		case EventMem:
			m := ev.Mem
			s.put("mem.free_kb", float64(m.FreeKB))
			s.put("mem.rss_kb", float64(m.ProcRSSKB))
		}
	}
}

func (s *StagedSink) put(name string, v float64) {
	if s.err == nil {
		s.err = s.w.Put(name, v)
	}
}

// Close flushes the final step and reports any deferred error.
func (s *StagedSink) Close() error {
	if s.err != nil {
		return s.err
	}
	if s.dirty {
		s.dirty = false
		return s.w.EndStep()
	}
	return nil
}
