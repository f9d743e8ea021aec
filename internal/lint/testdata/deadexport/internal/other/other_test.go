package other

import (
	"testing"

	"fixture/deadexport/internal/lib"
)

func TestHelper(t *testing.T) {
	if lib.Helper() != 3 {
		t.Fatal("Helper")
	}
}
