package crash

import (
	"fmt"
	"io"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe string buffer for handler output.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestReportContainsBacktraceAndContext(t *testing.T) {
	var buf syncBuffer
	h := New(&buf)
	h.OnReport(func(w io.Writer) { fmt.Fprintln(w, "monitor-context-line") })
	h.Report("unit test")
	out := buf.String()
	for _, want := range []string{
		"ZeroSum abnormal exit report",
		"reason: unit test",
		"monitor-context-line",
		"backtrace (all goroutines)",
		"goroutine",
		"TestReportContainsBacktraceAndContext",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestSignalTriggersReportAndExit(t *testing.T) {
	var buf syncBuffer
	h := New(&buf)
	exitCode := make(chan int, 1)
	h.Install(func(code int) { exitCode <- code })
	defer h.Uninstall()

	// Deliver a catchable abnormal signal to ourselves.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exitCode:
		if code != 128+int(syscall.SIGQUIT) {
			t.Fatalf("exit code = %d, want %d", code, 128+int(syscall.SIGQUIT))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("signal handler never fired")
	}
	if !strings.Contains(buf.String(), "SIGQUIT") && !strings.Contains(buf.String(), "quit") {
		t.Errorf("report should name the signal:\n%s", buf.String())
	}
}

func TestUninstallIdempotent(t *testing.T) {
	h := New(nil)
	h.Uninstall() // never installed: no-op
	h.Install(func(int) {})
	h.Install(func(int) {}) // double install: no-op
	h.Uninstall()
	h.Uninstall()
}

// Uninstall stops listening, so a test can install a handler and clean up.
func (h *Handler) Uninstall() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.installed {
		return
	}
	h.installed = false
	signal.Stop(h.ch)
	close(h.ch)
	<-h.done
}
