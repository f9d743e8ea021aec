// Package fsio simulates a shared (parallel) filesystem: the Darshan-shaped
// substrate behind the paper's I/O motivations — "increased or variable
// network and disk latency", "file system quotas" as an exhaustible
// resource (§2), and the /proc/<pid>/io counters ZeroSum samples. Transfers
// from all processes on all nodes serialize through an aggregate-bandwidth
// server queue, so concurrent checkpoints contend exactly like jobs sharing
// a Lustre OST.
package fsio

import (
	"fmt"

	"zerosum/internal/sched"
	"zerosum/internal/sim"
)

// Params describes the filesystem.
type Params struct {
	// BytesPerSec is the aggregate server bandwidth.
	BytesPerSec float64
	// LatencyPerOp is the fixed per-operation cost (metadata round trip).
	LatencyPerOp sim.Time
	// QuotaBytes caps the total data written (0 = unlimited), the
	// resource-exhaustion case users want ZeroSum to help diagnose.
	QuotaBytes uint64
}

// DefaultParams returns a modest shared-filesystem profile.
func DefaultParams() Params {
	return Params{
		BytesPerSec:  5e9, // a few OSTs worth
		LatencyPerOp: 500 * sim.Microsecond,
	}
}

// ErrQuota is returned (wrapped) when a write would exceed the quota.
var ErrQuota = fmt.Errorf("fsio: filesystem quota exhausted")

// FileSystem is one shared filesystem instance.
type FileSystem struct {
	P     Params
	clock func() sim.Time

	busyUntil sim.Time
	usedBytes uint64

	totalRead    uint64
	totalWritten uint64
	readOps      uint64
	writeOps     uint64
}

// New creates a filesystem on the given clock.
func New(p Params, clock func() sim.Time) *FileSystem {
	if clock == nil {
		panic("fsio: nil clock")
	}
	if p.BytesPerSec <= 0 {
		p.BytesPerSec = DefaultParams().BytesPerSec
	}
	return &FileSystem{P: p, clock: clock}
}

// transfer queues an operation and returns its completion time.
func (f *FileSystem) transfer(bytes uint64) sim.Time {
	now := f.clock()
	start := now
	if f.busyUntil > start {
		start = f.busyUntil
	}
	dur := f.P.LatencyPerOp + sim.Time(float64(bytes)/f.P.BytesPerSec*float64(sim.Second))
	f.busyUntil = start + dur
	return f.busyUntil
}

// Write issues a write on behalf of p. It returns the completion time; the
// calling task should sleep until then. The process's /proc/<pid>/io
// counters advance immediately (the syscall is issued now).
func (f *FileSystem) Write(p *sched.Process, bytes uint64) (sim.Time, error) {
	if f.P.QuotaBytes > 0 && f.usedBytes+bytes > f.P.QuotaBytes {
		return 0, fmt.Errorf("%w: used %d + %d > %d", ErrQuota, f.usedBytes, bytes, f.P.QuotaBytes)
	}
	f.usedBytes += bytes
	f.totalWritten += bytes
	f.writeOps++
	if p != nil {
		p.AddIO(false, bytes)
	}
	return f.transfer(bytes), nil
}

// Read issues a read on behalf of p.
func (f *FileSystem) Read(p *sched.Process, bytes uint64) (sim.Time, error) {
	f.totalRead += bytes
	f.readOps++
	if p != nil {
		p.AddIO(true, bytes)
	}
	return f.transfer(bytes), nil
}

// Remove frees quota (file deletion).
func (f *FileSystem) Remove(bytes uint64) {
	if bytes > f.usedBytes {
		f.usedBytes = 0
		return
	}
	f.usedBytes -= bytes
}

// UsedBytes reports quota consumption.
func (f *FileSystem) UsedBytes() uint64 { return f.usedBytes }

// Stats reports lifetime totals: bytes read/written and operation counts.
func (f *FileSystem) Stats() (readBytes, writtenBytes, readOps, writeOps uint64) {
	return f.totalRead, f.totalWritten, f.readOps, f.writeOps
}

// WriteAction builds the behavior fragment for one blocking write: issue
// the syscall (accounting now), then sleep until the server completes. The
// returned actions are consumed in order by a SeqBehavior or state machine.
func (f *FileSystem) WriteAction(p *sched.Process, bytes uint64, onErr func(error)) []sched.Action {
	return f.opActions(p, bytes, false, onErr)
}

// ReadAction builds the behavior fragment for one blocking read.
func (f *FileSystem) ReadAction(p *sched.Process, bytes uint64, onErr func(error)) []sched.Action {
	return f.opActions(p, bytes, true, onErr)
}

func (f *FileSystem) opActions(p *sched.Process, bytes uint64, read bool, onErr func(error)) []sched.Action {
	var wait sim.Time
	issue := sched.Call{Fn: func(now sim.Time) {
		var done sim.Time
		var err error
		if read {
			done, err = f.Read(p, bytes)
		} else {
			done, err = f.Write(p, bytes)
		}
		if err != nil {
			if onErr != nil {
				onErr(err)
				return
			}
			panic(err)
		}
		wait = done - now
	}}
	// The syscall burns a little CPU (buffer copy), then blocks until the
	// server answers; the sleep duration is bound when the Call above has
	// run.
	cpu := sched.Compute{Work: 20 * sim.Microsecond, SysFrac: 1.0}
	sleep := sched.Deferred{Fn: func() sched.Action {
		d := wait
		if d < 0 {
			d = 0
		}
		return sched.Sleep{D: d}
	}}
	return []sched.Action{issue, cpu, sleep}
}
