// Package lib holds the declarations the deadexport fixture judges.
package lib

import "strconv"

// Called has a non-test caller in the root package: clean (rule a).
func Called() int { return 1 }

// Widget is re-exported by the root package.
type Widget struct{}

// Public has no caller, but Widget is public API: clean (rule b).
func (Widget) Public() {}

// Sizer is an interface of the program.
type Sizer interface{ Size() int }

// Box satisfies Sizer through Size, and fmt.Stringer through String.
type Box struct{}

// Size is only called through Sizer: clean (rule c).
func (Box) Size() int { return 2 }

// String is only called by fmt: clean (rule c).
func (Box) String() string { return strconv.Itoa(2) }

// Helper is used by another package's test: clean (rule d).
func Helper() int { return 3 }

// Dead is used only by its own package's test and by itself: a finding.
func Dead(n int) int {
	if n > 0 {
		return Dead(n - 1)
	}
	return 4
}
