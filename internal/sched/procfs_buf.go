package sched

import (
	"fmt"
	"slices"

	"zerosum/internal/proc"
)

// The simulator implements proc.BufFS so the monitor exercises its buffered
// fast path against simulated kernels too — the Into methods render into
// the caller's buffer (the render itself still allocates: fmt into a
// strings.Builder, then a copy; ROADMAP item 1 says what must change in
// the benchmark before it can be sped up) and simTaskReader mimics the
// lifetime semantics of a cached /proc descriptor: opening a dead tid
// fails, and reads start failing the moment the thread exits, which is how
// the monitor's fd-cache invalidation is driven under chaos testing.

var _ proc.BufFS = (*FS)(nil)

// TasksInto implements proc.BufFS.
func (f *FS) TasksInto(pid int, tids []int) ([]int, error) {
	p := f.k.procByPID[pid]
	if p == nil {
		return tids, fmt.Errorf("sched: no such process %d", pid)
	}
	start := len(tids)
	for _, t := range p.LiveTasks() {
		tids = append(tids, t.TID)
	}
	slices.Sort(tids[start:])
	return tids, nil
}

// OpenTask implements proc.BufFS.
func (f *FS) OpenTask(pid, tid int) (proc.TaskReader, error) {
	if _, _, err := f.findTask(pid, tid); err != nil {
		return nil, err
	}
	return &simTaskReader{f: f, pid: pid, tid: tid}, nil
}

// ProcessStatusInto implements proc.BufFS.
func (f *FS) ProcessStatusInto(pid int, buf []byte) ([]byte, error) {
	b, err := f.ProcessStatus(pid)
	if err != nil {
		return buf, err
	}
	return append(buf[:0], b...), nil
}

// ProcessIOInto implements proc.BufFS.
func (f *FS) ProcessIOInto(pid int, buf []byte) ([]byte, error) {
	b, err := f.ProcessIO(pid)
	if err != nil {
		return buf, err
	}
	return append(buf[:0], b...), nil
}

// MeminfoInto implements proc.BufFS.
func (f *FS) MeminfoInto(buf []byte) ([]byte, error) {
	b, err := f.Meminfo()
	if err != nil {
		return buf, err
	}
	return append(buf[:0], b...), nil
}

// StatInto implements proc.BufFS.
func (f *FS) StatInto(buf []byte) ([]byte, error) {
	b, err := f.Stat()
	if err != nil {
		return buf, err
	}
	return append(buf[:0], b...), nil
}

// simTaskReader is the simulator's cached-descriptor analogue: it stays
// bound to one (pid, tid) and fails reads once the task exits.
type simTaskReader struct {
	f        *FS
	pid, tid int
}

func (r *simTaskReader) StatInto(buf []byte) ([]byte, error) {
	b, err := r.f.TaskStat(r.pid, r.tid)
	if err != nil {
		return buf, err
	}
	return append(buf[:0], b...), nil
}

func (r *simTaskReader) StatusInto(buf []byte) ([]byte, error) {
	b, err := r.f.TaskStatus(r.pid, r.tid)
	if err != nil {
		return buf, err
	}
	return append(buf[:0], b...), nil
}

func (r *simTaskReader) Close() error { return nil }
