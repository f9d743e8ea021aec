package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for zsrun: with ZSRUN_TEST_MAIN
// set, it runs main on its own arguments, so a test drives the real flag
// path in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("ZSRUN_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLogdirGolden pins the bytes of a small job's per-rank logs: the
// Listing 2 style report (.log) and the §3.6 CSVs, which zsrun renders
// from each rank's .zsbp frame log. After a reviewed change to either
// format, run the command below and paste the new sha256 sums here.
//
//	zsrun -logdir D -n 2 -c 4 -gpus-per-task 1 -steps 20 -seed 1
func TestLogdirGolden(t *testing.T) {
	want := map[string]string{
		"zerosum.rank000.lwp.csv": "f1405ec0e787d283565fba9c1c5cb24ee79e8d9c02d0b63cb064230e9e0e6637",
		"zerosum.rank000.hwt.csv": "8ba8977773a68721865ef0d42eb86647decb139c81fe5310ef9b02bac3bcf5ef",
		"zerosum.rank000.gpu.csv": "e246bb23e51944a03bce3d037c59c5373e5cfa4df985772a1e669be305a06ccd",
		"zerosum.rank000.mem.csv": "498948978646f5b3cf4952651cda92e2478278540c6c19550d52d16b1ee4e42e",
		"zerosum.rank000.log":     "df12580ea5ab8d603ba84be5414ad3a663a59b236e7dfc8f188302b4798c2c64",
		"zerosum.rank001.lwp.csv": "b6c011ed7f351114b6d87af26d143130763c2c403c8faae2ba7a98821df53409",
		"zerosum.rank001.hwt.csv": "0e98d6a54b8a4712f2a0c066697725e152d9353d319f3896ebbf1eb18cbaa037",
		"zerosum.rank001.gpu.csv": "9846e56ad096004bb47ecfa92133b7cd6638e996e71f5989b140e2f1a044f127",
		"zerosum.rank001.mem.csv": "dca8c4b8032eccafb5ddf75c36e5e47889cf77cdcb35c9f7ee15efa3480ee582",
		"zerosum.rank001.log":     "bb3182820dac8dd36adef1559321cbb3db9af8bc1d2dd11906fada88a50b9f41",
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-logdir", dir, "-n", "2", "-c", "4", "-gpus-per-task", "1", "-steps", "20", "-seed", "1")
	cmd.Env = append(os.Environ(), "ZSRUN_TEST_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("zsrun: %v\n%s", err, out)
	}
	for name, sum := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != sum {
			t.Errorf("%s: sha256 %x, want %s", name, got, sum)
		}
	}
	for _, rank := range []string{"rank000", "rank001"} {
		if _, err := os.Stat(filepath.Join(dir, "zerosum."+rank+".zsbp")); err != nil {
			t.Errorf("frame log: %v", err)
		}
	}
}

// TestNoMonitorLogdirRejected: -no-monitor leaves every rank without
// samples, so -logdir could write nothing; the pair is refused up front
// with both flags named, not reported as logs written.
func TestNoMonitorLogdirRejected(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "logs")
	cmd := exec.Command(exe, "-no-monitor", "-logdir", dir, "-n", "2", "-c", "4", "-steps", "5")
	cmd.Env = append(os.Environ(), "ZSRUN_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("zsrun -no-monitor -logdir exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "-no-monitor") || !strings.Contains(string(out), "-logdir") {
		t.Errorf("error does not name both flags:\n%s", out)
	}
	if strings.Contains(string(out), "logs written") {
		t.Errorf("claims logs were written:\n%s", out)
	}
}
