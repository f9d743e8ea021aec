package lib

import "testing"

func TestDead(t *testing.T) {
	if Dead(1) != 4 {
		t.Fatal("Dead")
	}
}
