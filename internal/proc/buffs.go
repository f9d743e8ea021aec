package proc

// BufFS is the allocation-free extension of FS the monitor's sampling loop
// reads through. Every XxxInto method writes the file's current text into
// the caller's reusable buffer (growing it only when the content outgrows
// the capacity) and returns the filled slice, so a steady-state tick
// performs no allocation; OpenTask returns a per-LWP reader that holds the
// underlying file descriptors open across ticks. Both RealFS (cached fds +
// pread) and the sched simulator implement it; AdaptFS upgrades any other
// FS via the allocating read path.
//
// BufFS methods share cached state and must be called from one goroutine at
// a time.
type BufFS interface {
	FS
	// TasksInto appends the live LWP ids of pid to tids in ascending order
	// and returns the extended slice, reusing its storage across ticks.
	TasksInto(pid int, tids []int) ([]int, error)
	// OpenTask returns a reader over one LWP's stat and status files. The
	// reader stays valid across ticks until the thread exits, at which point
	// reads fail (ESRCH on live /proc) and the caller must Close it.
	OpenTask(pid, tid int) (TaskReader, error)
	// ProcessStatusInto reads /proc/<pid>/status into buf.
	ProcessStatusInto(pid int, buf []byte) ([]byte, error)
	// ProcessIOInto reads /proc/<pid>/io into buf.
	ProcessIOInto(pid int, buf []byte) ([]byte, error)
	// MeminfoInto reads /proc/meminfo into buf.
	MeminfoInto(buf []byte) ([]byte, error)
	// StatInto reads /proc/stat into buf.
	StatInto(buf []byte) ([]byte, error)
}

// TaskReader reads one LWP's files through cached descriptors. StatInto and
// StatusInto fill the caller's buffer and return the filled slice; a read
// error means the thread is gone and the reader must be closed.
type TaskReader interface {
	StatInto(buf []byte) ([]byte, error)
	StatusInto(buf []byte) ([]byte, error)
	Close() error
}

// AdaptFS returns fs as a BufFS. Implementations that already provide the
// buffered extension are returned unchanged; anything else is wrapped in an
// adapter whose Into methods copy through the plain allocating reads (still
// correct, just not allocation-free).
func AdaptFS(fs FS) BufFS {
	if b, ok := fs.(BufFS); ok {
		return b
	}
	return &bufAdapter{FS: fs}
}

type bufAdapter struct{ FS }

func (a *bufAdapter) TasksInto(pid int, tids []int) ([]int, error) {
	ts, err := a.FS.Tasks(pid)
	if err != nil {
		return tids, err
	}
	return append(tids, ts...), nil
}

func (a *bufAdapter) OpenTask(pid, tid int) (TaskReader, error) {
	// Probe once so a dead tid fails at open, matching RealFS.
	if _, err := a.FS.TaskStat(pid, tid); err != nil {
		return nil, err
	}
	return &adapterTaskReader{fs: a.FS, pid: pid, tid: tid}, nil
}

func (a *bufAdapter) ProcessStatusInto(pid int, buf []byte) ([]byte, error) {
	b, err := a.FS.ProcessStatus(pid)
	if err != nil {
		return buf, err
	}
	return append(buf[:0], b...), nil
}

func (a *bufAdapter) ProcessIOInto(pid int, buf []byte) ([]byte, error) {
	b, err := a.FS.ProcessIO(pid)
	if err != nil {
		return buf, err
	}
	return append(buf[:0], b...), nil
}

func (a *bufAdapter) MeminfoInto(buf []byte) ([]byte, error) {
	b, err := a.FS.Meminfo()
	if err != nil {
		return buf, err
	}
	return append(buf[:0], b...), nil
}

func (a *bufAdapter) StatInto(buf []byte) ([]byte, error) {
	b, err := a.FS.Stat()
	if err != nil {
		return buf, err
	}
	return append(buf[:0], b...), nil
}

type adapterTaskReader struct {
	fs       FS
	pid, tid int
}

func (r *adapterTaskReader) StatInto(buf []byte) ([]byte, error) {
	b, err := r.fs.TaskStat(r.pid, r.tid)
	if err != nil {
		return buf, err
	}
	return append(buf[:0], b...), nil
}

func (r *adapterTaskReader) StatusInto(buf []byte) ([]byte, error) {
	b, err := r.fs.TaskStatus(r.pid, r.tid)
	if err != nil {
		return buf, err
	}
	return append(buf[:0], b...), nil
}

func (r *adapterTaskReader) Close() error { return nil }
