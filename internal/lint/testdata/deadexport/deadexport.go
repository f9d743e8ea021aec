// Package deadexport exercises the deadexport check: one exported
// declaration under internal/ for each rule that keeps it, and one that
// nothing but its own package's tests uses.
package deadexport

import "fixture/deadexport/internal/lib"

// Widget re-exports lib.Widget, so its methods are public API (rule b).
type Widget = lib.Widget

// Run calls lib.Called from non-test code (rule a).
func Run() int {
	var s lib.Sizer = lib.Box{}
	return lib.Called() + s.Size()
}
