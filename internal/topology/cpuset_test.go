package topology

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCPUSetBasics(t *testing.T) {
	var s CPUSet
	if !s.Empty() {
		t.Fatal("zero CPUSet should be empty")
	}
	if s.Count() != 0 || s.First() != -1 || s.Last() != -1 {
		t.Fatalf("empty set invariants violated: count=%d first=%d last=%d", s.Count(), s.First(), s.Last())
	}
	s.Set(3)
	s.Set(70)
	s.Set(3) // idempotent
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	if !s.Contains(3) || !s.Contains(70) || s.Contains(4) {
		t.Fatal("Contains wrong")
	}
	if s.First() != 3 || s.Last() != 70 {
		t.Fatalf("First/Last = %d/%d, want 3/70", s.First(), s.Last())
	}
	s.Clear(3)
	if s.Contains(3) || s.Count() != 1 {
		t.Fatal("Clear failed")
	}
	s.Clear(1000) // out of range: no-op
	if s.Count() != 1 {
		t.Fatal("Clear out of range changed the set")
	}
}

func TestCPUSetSetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) should panic")
		}
	}()
	var s CPUSet
	s.Set(-1)
}

func TestRangeCPUSet(t *testing.T) {
	s := RangeCPUSet(1, 7)
	if got := s.String(); got != "1-7" {
		t.Fatalf("String = %q, want 1-7", got)
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
	one := RangeCPUSet(5, 5)
	if one.String() != "5" {
		t.Fatalf("singleton String = %q", one.String())
	}
}

func TestRangeCPUSetInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RangeCPUSet(3,1) should panic")
		}
	}()
	RangeCPUSet(3, 1)
}

func TestCPUSetStringFrontierStyle(t *testing.T) {
	// The "Other" thread affinity in Listing 2: all PUs except every
	// multiple of 8 in 0..127.
	var s CPUSet
	for p := 0; p < 128; p++ {
		if p%8 != 0 {
			s.Set(p)
		}
	}
	want := "1-7,9-15,17-23,25-31,33-39,41-47,49-55,57-63,65-71,73-79,81-87,89-95,97-103,105-111,113-119,121-127"
	if got := s.String(); got != want {
		t.Fatalf("String =\n%s\nwant\n%s", got, want)
	}
	parsed, err := ParseCPUList(want)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(s) {
		t.Fatal("round trip failed")
	}
}

func TestParseCPUList(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"", nil, true},
		{"0", []int{0}, true},
		{"1-3", []int{1, 2, 3}, true},
		{"1-3,7,9-10", []int{1, 2, 3, 7, 9, 10}, true},
		{" 1 - 3 , 7 ", []int{1, 2, 3, 7}, true},
		{"1-3,,7", []int{1, 2, 3, 7}, true}, // tolerate empty entries
		{"3-1", nil, false},
		{"x", nil, false},
		{"1-x", nil, false},
		{"-2-1", nil, false},
	}
	for _, c := range cases {
		s, err := ParseCPUList(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseCPUList(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if err == nil && !reflect.DeepEqual(s.List(), c.want) {
			t.Errorf("ParseCPUList(%q) = %v, want %v", c.in, s.List(), c.want)
		}
	}
}

func TestHexMask(t *testing.T) {
	s := NewCPUSet(0, 1, 2, 3, 4, 5, 6, 7)
	if got := s.HexMask(); got != "ff" {
		t.Fatalf("HexMask = %q, want ff", got)
	}
	var big CPUSet
	for p := 1; p < 64; p++ {
		big.Set(p)
	}
	if got := big.HexMask(); got != "ffffffff,fffffffe" {
		t.Fatalf("HexMask = %q, want ffffffff,fffffffe", got)
	}
	var empty CPUSet
	if got := empty.HexMask(); got != "0" {
		t.Fatalf("empty HexMask = %q, want 0", got)
	}
}

func TestParseHexMask(t *testing.T) {
	var s CPUSet
	if err := ParseHexMaskInto([]byte("ffffffff,fffffffe"), &s); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 63 || s.Contains(0) || !s.Contains(63) {
		t.Fatalf("parsed mask wrong: %s", s.String())
	}
	if err := ParseHexMaskInto(nil, &s); err == nil {
		t.Fatal("empty mask should fail")
	}
	if err := ParseHexMaskInto([]byte("zz"), &s); err == nil {
		t.Fatal("bad hex should fail")
	}
}

func TestCPUSetAlgebra(t *testing.T) {
	a := NewCPUSet(1, 2, 3, 64)
	b := NewCPUSet(3, 4, 64, 100)
	if got := a.And(b).List(); !reflect.DeepEqual(got, []int{3, 64}) {
		t.Fatalf("And = %v", got)
	}
	if got := a.Or(b).List(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 64, 100}) {
		t.Fatalf("Or = %v", got)
	}
	if got := a.AndNot(b).List(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("AndNot = %v", got)
	}
	if !a.Overlaps(b) {
		t.Fatal("Overlaps should be true")
	}
	if a.Overlaps(NewCPUSet(9)) {
		t.Fatal("Overlaps should be false")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone should be equal")
	}
	// Equal across different word lengths.
	short := NewCPUSet(1)
	long := NewCPUSet(1)
	long.Set(200)
	long.Clear(200)
	if !short.Equal(long) || !long.Equal(short) {
		t.Fatal("Equal should ignore trailing zero words")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := NewCPUSet(1, 2)
	b := a.Clone()
	b.Set(3)
	if a.Contains(3) {
		t.Fatal("mutating clone affected original")
	}
}

// quickSet builds a CPUSet plus a reference map from fuzz input.
func quickSet(idxs []uint16) (CPUSet, map[int]bool) {
	var s CPUSet
	ref := map[int]bool{}
	for _, i := range idxs {
		p := int(i % 512)
		s.Set(p)
		ref[p] = true
	}
	return s, ref
}

func TestQuickCPUSetStringRoundTrip(t *testing.T) {
	f := func(idxs []uint16) bool {
		s, _ := quickSet(idxs)
		parsed, err := ParseCPUList(s.String())
		return err == nil && parsed.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCPUSetHexRoundTrip(t *testing.T) {
	f := func(idxs []uint16) bool {
		s, _ := quickSet(idxs)
		if s.Empty() {
			return true
		}
		var parsed CPUSet
		err := ParseHexMaskInto([]byte(s.HexMask()), &parsed)
		return err == nil && parsed.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCPUSetAlgebraLaws(t *testing.T) {
	f := func(xa, xb []uint16) bool {
		a, _ := quickSet(xa)
		b, _ := quickSet(xb)
		union := a.Or(b)
		inter := a.And(b)
		diff := a.AndNot(b)
		// |A∪B| = |A| + |B| - |A∩B|
		if union.Count() != a.Count()+b.Count()-inter.Count() {
			return false
		}
		// A\B and A∩B partition A.
		if diff.Count()+inter.Count() != a.Count() {
			return false
		}
		// De Morgan-ish: (A∪B)\B == A\B
		if !union.AndNot(b).Equal(diff) {
			return false
		}
		// Overlap consistency.
		if a.Overlaps(b) != !inter.Empty() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountMatchesReference(t *testing.T) {
	f := func(idxs []uint16) bool {
		s, ref := quickSet(idxs)
		if s.Count() != len(ref) {
			return false
		}
		for p := range ref {
			if !s.Contains(p) {
				return false
			}
		}
		list := s.List()
		for i := 1; i < len(list); i++ {
			if list[i] <= list[i-1] {
				return false // List must be strictly ascending
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCPUSetString(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var s CPUSet
	for i := 0; i < 64; i++ {
		s.Set(rng.Intn(128))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.String()
	}
}

func BenchmarkParseCPUList(b *testing.B) {
	const text = "1-7,9-15,17-23,25-31,33-39,41-47,49-55,57-63,65-71,73-79,81-87,89-95,97-103,105-111,113-119,121-127"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseCPUList(text); err != nil {
			b.Fatal(err)
		}
	}
}
