package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture expected.txt golden files")

// TestFixtures runs each check over its fixture mini-module under testdata/
// and compares the diagnostics against the golden expected.txt. Every
// fixture contains at least one true positive (asserted by the golden being
// non-empty) and clean negative declarations (asserted by their absence
// from the golden). Regenerate goldens with: go test ./internal/lint -run
// Fixtures -update
func TestFixtures(t *testing.T) {
	// Fixture code lives in each mini-module's root package, so scope the
	// scoped checks to the module root.
	opts := Options{ErrcheckScope: []string{""}, ClockScope: []string{""}}
	byName := make(map[string]Check)
	for _, c := range Checks(opts) {
		byName[c.Name()] = c
	}

	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(byName) {
		t.Errorf("testdata has %d fixtures, want one per check (%d)", len(entries), len(byName))
	}
	for _, e := range entries {
		name := e.Name()
		check := byName[name]
		if check == nil {
			t.Errorf("testdata/%s does not match any check", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			prog, err := Load(dir)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			diags := Run(prog, []Check{check})
			var got strings.Builder
			if err := WriteText(&got, diags); err != nil {
				t.Fatal(err)
			}

			golden := filepath.Join(dir, "expected.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got.String() != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got.String(), want)
			}
			if len(diags) == 0 {
				t.Error("fixture produced no findings; it must prove at least one true positive")
			}
		})
	}
}

// TestRepoIsClean is the self-test: the full suite over this repository
// must report nothing, i.e. `zslint ./...` stays green.
func TestRepoIsClean(t *testing.T) {
	prog, err := Load("../..")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, d := range Run(prog, Checks(DefaultOptions())) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestDeadexportBitesRealCode proves deadexport catches a break in this
// repository's own code, not only in its fixture: a copy of the module
// (every .go file and go.mod, no testdata) lints clean, and the same copy
// with one uncalled exported func appended to a real file reports exactly
// that func.
func TestDeadexportBitesRealCode(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the module twice")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = walkModuleDirs(root, func(dir string) error {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() || !(strings.HasSuffix(e.Name(), ".go") || e.Name() == "go.mod") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return err
			}
			if err := os.MkdirAll(filepath.Join(dst, rel), 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dst, rel, e.Name()), data, 0o644); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []Diagnostic {
		t.Helper()
		prog, err := Load(dst)
		if err != nil {
			t.Fatalf("load copy: %v", err)
		}
		return Run(prog, []Check{deadexportCheck{}})
	}
	if diags := run(); len(diags) != 0 {
		t.Fatalf("unmutated copy has findings: %v", diags)
	}

	store := filepath.Join(dst, "internal", "tsdb", "store.go")
	f, err := os.OpenFile(store, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString("\n// Uncalled is the seeded break.\nfunc Uncalled() int { return 0 }\n")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	diags := run()
	if len(diags) != 1 || diags[0].File != "internal/tsdb/store.go" || !strings.Contains(diags[0].Message, "tsdb.Uncalled ") {
		t.Fatalf("mutated copy: want one deadexport finding for tsdb.Uncalled, got %v", diags)
	}
}

// TestDiagnosticFormat pins the rendering contract the issue specifies.
func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{Check: "hotpath", File: "internal/export/stream.go", Line: 7, Col: 2, Message: "calls fmt.Sprintf"}
	want := "internal/export/stream.go:7: [hotpath] calls fmt.Sprintf"
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
}

// TestWriteJSONNeverNull pins that -json output is always an array.
func TestWriteJSONNeverNull(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Errorf("empty diagnostics rendered %q, want []", b.String())
	}
}
