package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zerosum/internal/aggd"
	"zerosum/internal/export"
)

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what fn printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestReportStagedTornLog cuts a three-instant .zsbp log inside its last
// frame, as a rank killed mid-write leaves it: the report still charts the
// two complete instants and returns no error.
func TestReportStagedTornLog(t *testing.T) {
	var buf bytes.Buffer
	fl := aggd.NewFrameLog(&buf, aggd.Origin{Job: "j", Node: "n0", Rank: 0})
	sub := fl.Subscriber()
	for i := 0; i < 3; i++ {
		ts := 1 + float64(i)
		sub(export.Event{Kind: export.EventHWT, TimeSec: ts, HWT: &export.HWTSample{
			CPU: 2, UserPct: 25 * float64(i), IdlePct: 100 - 25*float64(i)}})
		sub(export.Event{Kind: export.EventMem, TimeSec: ts, Mem: &export.MemSample{FreeKB: 1 << 20}})
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "zerosum.rank000.zsbp")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-3], 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return reportStaged(path, false) })
	if err != nil {
		t.Fatalf("reportStaged: %v", err)
	}
	if !strings.HasPrefix(out, "2 steps, 5 variables\n") {
		t.Fatalf("report:\n%s", out)
	}
	// Two points each, both instants; the non-percentage mem.* series are
	// left out of the sparklines.
	for _, want := range []string{"hwt.2.idle_pct           █▆  mean  87.50", "hwt.2.user_pct           ▁▂  mean  12.50"} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
}
