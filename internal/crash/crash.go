// Package crash implements ZeroSum's abnormal-exit reporting (paper §3.1):
// an optional signal handler that, on SIGSEGV/SIGBUS-class failures or
// explicit request, writes a backtrace of every goroutine plus the
// monitor's last-known state to the process log, so users can distinguish
// their own crashes from system failures. This is a live-host feature (the
// simulator has no signals); it uses the real os/signal machinery.
package crash

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Handler installs signal-driven backtrace reporting.
type Handler struct {
	mu        sync.Mutex
	out       io.Writer         //zerosum:guardedby mu
	extra     []func(io.Writer) //zerosum:guardedby mu
	ch        chan os.Signal    // read by the signal goroutine without mu
	done      chan struct{}     // channel ops synchronize themselves
	installed bool              //zerosum:guardedby mu
}

// New creates a handler writing reports to out.
func New(out io.Writer) *Handler {
	if out == nil {
		out = os.Stderr
	}
	return &Handler{out: out}
}

// OnReport registers a callback that contributes context to crash reports
// (ZeroSum adds its latest utilization snapshot here).
func (h *Handler) OnReport(fn func(io.Writer)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.extra = append(h.extra, fn)
}

// Signals that indicate abnormal termination. SIGSEGV cannot be usefully
// caught from pure Go (the runtime owns it), so the catchable set is the
// conventional abnormal-exit group.
var defaultSignals = []os.Signal{
	syscall.SIGBUS, syscall.SIGABRT, syscall.SIGTERM, syscall.SIGQUIT,
}

// Install starts listening; the report fires at most once, then the
// handler re-raises the default disposition by exiting with 128+signum.
// exitFn defaults to os.Exit and exists for tests.
func (h *Handler) Install(exitFn func(int)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.installed {
		return
	}
	h.installed = true
	if exitFn == nil {
		exitFn = os.Exit
	}
	h.ch = make(chan os.Signal, 1)
	h.done = make(chan struct{})
	signal.Notify(h.ch, defaultSignals...)
	go func() {
		defer close(h.done)
		sig, ok := <-h.ch
		if !ok {
			return
		}
		h.Report(fmt.Sprintf("caught signal %v", sig))
		if s, ok := sig.(syscall.Signal); ok {
			exitFn(128 + int(s))
		} else {
			exitFn(1)
		}
	}()
}

// Report writes a backtrace and all registered context immediately.
func (h *Handler) Report(reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Fprintf(h.out, "=== ZeroSum abnormal exit report ===\n")
	fmt.Fprintf(h.out, "reason: %s\n", reason)
	fmt.Fprintf(h.out, "time: %s\n", time.Now().UTC().Format(time.RFC3339))
	fmt.Fprintf(h.out, "pid: %d\n\n", os.Getpid())
	for _, fn := range h.extra {
		fn(h.out)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	fmt.Fprintf(h.out, "--- backtrace (all goroutines) ---\n%s\n", buf[:n])
}
