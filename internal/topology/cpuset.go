// Package topology models the hardware of a heterogeneous HPC compute node:
// packages, NUMA domains, cache regions, cores, hardware threads (PUs) and
// GPUs, in the style of the Portable Hardware Locality (hwloc) library the
// paper relies on. It also provides CPUSet, the affinity-mask type used
// throughout the kernel simulator and the monitor.
package topology

import (
	"fmt"
	"math/bits"
	"strings"
)

// CPUSet is a set of hardware-thread (PU) OS indexes, equivalent to the
// kernel's cpumask / cpuset. The zero value is the empty set.
type CPUSet struct {
	words []uint64
}

// NewCPUSet returns a set containing the given PU indexes.
func NewCPUSet(pus ...int) CPUSet {
	var s CPUSet
	for _, p := range pus {
		s.Set(p)
	}
	return s
}

// RangeCPUSet returns the set {lo, lo+1, ..., hi} (inclusive).
// It panics if lo > hi or lo < 0.
func RangeCPUSet(lo, hi int) CPUSet {
	if lo < 0 || lo > hi {
		panic(fmt.Sprintf("topology: invalid cpu range [%d,%d]", lo, hi))
	}
	var s CPUSet
	for p := lo; p <= hi; p++ {
		s.Set(p)
	}
	return s
}

func (s *CPUSet) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Set adds PU index p to the set. Negative indexes panic.
func (s *CPUSet) Set(p int) {
	if p < 0 {
		panic("topology: negative PU index")
	}
	s.grow(p / 64)
	s.words[p/64] |= 1 << uint(p%64)
}

// Clear removes PU index p from the set.
func (s *CPUSet) Clear(p int) {
	if p < 0 || p/64 >= len(s.words) {
		return
	}
	s.words[p/64] &^= 1 << uint(p%64)
}

// Contains reports whether PU index p is in the set.
func (s CPUSet) Contains(p int) bool {
	if p < 0 || p/64 >= len(s.words) {
		return false
	}
	return s.words[p/64]&(1<<uint(p%64)) != 0
}

// Count returns the number of PUs in the set.
func (s CPUSet) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set contains no PUs.
func (s CPUSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// List returns the PU indexes in ascending order.
func (s CPUSet) List() []int {
	var out []int
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// First returns the lowest PU index in the set, or -1 if empty.
func (s CPUSet) First() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Last returns the highest PU index in the set, or -1 if empty.
func (s CPUSet) Last() int {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return wi*64 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// Clone returns an independent copy of the set.
func (s CPUSet) Clone() CPUSet {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return CPUSet{words: w}
}

// Or returns the union of s and t.
func (s CPUSet) Or(t CPUSet) CPUSet {
	out := s.Clone()
	out.grow(len(t.words) - 1)
	for i, w := range t.words {
		out.words[i] |= w
	}
	return out
}

// And returns the intersection of s and t.
func (s CPUSet) And(t CPUSet) CPUSet {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	w := make([]uint64, n)
	for i := 0; i < n; i++ {
		w[i] = s.words[i] & t.words[i]
	}
	return CPUSet{words: w}
}

// AndNot returns the set difference s \ t.
func (s CPUSet) AndNot(t CPUSet) CPUSet {
	out := s.Clone()
	n := len(out.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		out.words[i] &^= t.words[i]
	}
	return out
}

// Equal reports whether s and t contain exactly the same PUs.
func (s CPUSet) Equal(t CPUSet) bool {
	a, b := s.words, t.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	for i := len(b); i < len(a); i++ {
		if a[i] != 0 {
			return false
		}
	}
	return true
}

// Overlaps reports whether s and t share at least one PU.
func (s CPUSet) Overlaps(t CPUSet) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// String renders the set in the Linux cpu-list format used by
// /proc/<pid>/status Cpus_allowed_list, e.g. "1-7,9-15,17". The empty set
// renders as "".
func (s CPUSet) String() string {
	list := s.List()
	if len(list) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < len(list); {
		j := i
		for j+1 < len(list) && list[j+1] == list[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j == i {
			fmt.Fprintf(&b, "%d", list[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", list[i], list[j])
		}
		i = j + 1
	}
	return b.String()
}

// MarshalText encodes the set in cpu-list format so CPUSet fields survive
// JSON/text serialization (the aggd wire layer ships core.Snapshot as JSON).
func (s CPUSet) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// UnmarshalText parses the cpu-list format written by MarshalText.
func (s *CPUSet) UnmarshalText(text []byte) error {
	parsed, err := ParseCPUList(string(text))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// HexMask renders the set in the Linux comma-grouped hexadecimal mask format
// used by /proc/<pid>/status Cpus_allowed, e.g. "ff" or "ffffffff,fffffffe".
// Groups of 32 bits are comma separated, most significant first.
func (s CPUSet) HexMask() string {
	last := s.Last()
	if last < 0 {
		return "0"
	}
	ngroups := last/32 + 1
	groups := make([]uint32, ngroups)
	for _, p := range s.List() {
		groups[p/32] |= 1 << uint(p%32)
	}
	var b strings.Builder
	for g := ngroups - 1; g >= 0; g-- {
		if b.Len() == 0 {
			fmt.Fprintf(&b, "%x", groups[g])
		} else {
			fmt.Fprintf(&b, ",%08x", groups[g])
		}
	}
	return b.String()
}

// ParseCPUList parses the Linux cpu-list format ("1-7,9,12-15"). Whitespace
// around entries is tolerated. An empty string yields the empty set.
func ParseCPUList(text string) (CPUSet, error) {
	var s CPUSet
	if err := ParseCPUListInto([]byte(text), &s); err != nil {
		return CPUSet{}, err
	}
	return s, nil
}
