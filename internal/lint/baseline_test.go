package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func diag(check, file string, line int, msg string) Diagnostic {
	return Diagnostic{Check: check, File: file, Line: line, Message: msg}
}

func TestBaselineCoversRecordedFindings(t *testing.T) {
	diags := []Diagnostic{
		diag("guardedby", "a/a.go", 10, "field S.x read without mu"),
		diag("guardedby", "a/a.go", 20, "field S.x read without mu"),
		diag("atomic", "b/b.go", 5, "mixed atomic and plain"),
	}
	b := NewBaseline(diags)
	if got := b.Diff(diags); len(got) != 0 {
		t.Fatalf("self-diff must be empty, got %v", got)
	}
}

func TestBaselineLineInsensitive(t *testing.T) {
	b := NewBaseline([]Diagnostic{diag("clock", "x/x.go", 10, "raw time.Now")})
	// Same (check, file, message) at a different line is still covered —
	// unrelated edits move code.
	moved := []Diagnostic{diag("clock", "x/x.go", 99, "raw time.Now")}
	if got := b.Diff(moved); len(got) != 0 {
		t.Fatalf("line move must stay covered, got %v", got)
	}
}

func TestBaselineDiffNewFinding(t *testing.T) {
	b := NewBaseline([]Diagnostic{diag("clock", "x/x.go", 10, "raw time.Now")})
	novel := diag("goroutinestop", "y/y.go", 3, "goroutine leak")
	got := b.Diff([]Diagnostic{diag("clock", "x/x.go", 10, "raw time.Now"), novel})
	if len(got) != 1 || got[0] != novel {
		t.Fatalf("want only the novel finding, got %v", got)
	}
}

func TestBaselineDiffSurplusCount(t *testing.T) {
	// Baseline accepts the finding once; a second identical instance is new.
	b := NewBaseline([]Diagnostic{diag("guardedby", "a/a.go", 10, "field S.x read without mu")})
	dup := []Diagnostic{
		diag("guardedby", "a/a.go", 10, "field S.x read without mu"),
		diag("guardedby", "a/a.go", 40, "field S.x read without mu"),
	}
	got := b.Diff(dup)
	if len(got) != 1 {
		t.Fatalf("want 1 surplus finding, got %v", got)
	}
	// Canonical order charges the budget to the earliest instance, so the
	// later one is the surplus.
	if got[0].Line != 40 {
		t.Fatalf("surplus should be the later instance, got line %d", got[0].Line)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	b := NewBaseline([]Diagnostic{
		diag("atomic", "b/b.go", 5, "mixed atomic and plain"),
		diag("guardedby", "a/a.go", 10, "field S.x read without mu"),
		diag("guardedby", "a/a.go", 20, "field S.x read without mu"),
	})
	if err := WriteBaselineFile(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaselineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, b)
	}
	// Entries must be sorted by (file, check, message) for diff-reviewable
	// output.
	for i := 1; i < len(b.Entries); i++ {
		a, c := b.Entries[i-1], b.Entries[i]
		if a.File > c.File || (a.File == c.File && a.Check > c.Check) {
			t.Fatalf("entries not in canonical order: %+v before %+v", a, c)
		}
	}
}

func TestBaselineVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(path, []byte(`{"version": 99, "entries": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaselineFile(path); err == nil {
		t.Fatal("version mismatch must fail the load")
	}
}

// TestDiagnosticOrdering pins THE canonical ordering: (file, line, check,
// col, message). Run, the baseline diff, and the CLI all rely on it.
func TestDiagnosticOrdering(t *testing.T) {
	in := []Diagnostic{
		{Check: "clock", File: "b.go", Line: 1, Col: 1, Message: "m"},
		{Check: "hotpath", File: "a.go", Line: 9, Col: 1, Message: "m"},
		{Check: "atomic", File: "a.go", Line: 2, Col: 5, Message: "m"},
		{Check: "guardedby", File: "a.go", Line: 2, Col: 1, Message: "m"},
		{Check: "atomic", File: "a.go", Line: 2, Col: 1, Message: "z"},
		{Check: "atomic", File: "a.go", Line: 2, Col: 1, Message: "a"},
	}
	sortDiagnostics(in)
	want := []Diagnostic{
		{Check: "atomic", File: "a.go", Line: 2, Col: 1, Message: "a"},
		{Check: "atomic", File: "a.go", Line: 2, Col: 1, Message: "z"},
		{Check: "atomic", File: "a.go", Line: 2, Col: 5, Message: "m"},
		{Check: "guardedby", File: "a.go", Line: 2, Col: 1, Message: "m"},
		{Check: "hotpath", File: "a.go", Line: 9, Col: 1, Message: "m"},
		{Check: "clock", File: "b.go", Line: 1, Col: 1, Message: "m"},
	}
	if !reflect.DeepEqual(in, want) {
		t.Fatalf("ordering drifted:\n got %v\nwant %v", in, want)
	}
}
