package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestPaperNumbersGolden pins the bytes of every experiment's output at a
// reduced scale (-scale 0.05 -runs 3 -ranks 64 -seed 1), so a change that
// moves any of the paper's numbers fails here rather than only when someone
// reruns the full evaluation. The shape tests in internal/experiments check
// that each result keeps the paper's form; this one checks that it did not
// move at all.
//
// After an intentional change to a result, review the new output with
//
//	go run ./cmd/experiments -run <ID> -scale 0.05 -runs 3 -ranks 64 -seed 1
//
// and paste the sum that `| sha256sum` prints for it below.
func TestPaperNumbersGolden(t *testing.T) {
	const (
		scale = 0.05
		runs  = 3
		ranks = 64
		seed  = 1
	)
	want := []struct{ id, sum string }{
		{"L1", "384024f3d7ebe2cf6a75a4fcf715dc5cfc893b73e2d690c7537ddc53eb9ab357"},
		{"L2", "3d0b4337734e93f2faded587b25b3c526ca5cba1fb71b2788cdc74e9d8f1f021"},
		{"T1", "3eb68fb84fb1be586976aafc53e2375179aef3533122223ca99f57e0065bb03f"},
		{"T2", "71a614a7538bb5083d72c2196e0ef89e52e486c8cb5adc7740451c61d1fdd473"},
		{"T3", "9aaba0abe0ab9e65b5d89697fd2dc52eb09ebd6c15db2cd8d979c7b797335632"},
		{"F5", "b7b1d3eab86dc544e3cc6c39c4a992dc322d2b0d5217d9d4ad31fd89335d8ab8"},
		{"F6", "989a4fa971338f41d3d2f47c24fb9090a082fa5372c327d6eed718b98cb709c5"},
		{"F7", "915bfedbb5d13bc3a07eee58c13516a926c81040ded1a638b136f3b788739c6b"},
		{"F8", "d1ed2083d33569b5a658932f917e24096be92718f8f03611da162230651696c5"},
		{"ABL", "4f621673a36099e260163acc5ffc175d18b3f290cb687278e77037d6a96172f7"},
	}
	for _, w := range want {
		var buf bytes.Buffer
		if err := runOne(&buf, w.id, scale, runs, ranks, seed, false); err != nil {
			t.Fatalf("%s: %v", w.id, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != w.sum {
			t.Errorf("%s: output sha256 %s, want %s; output:\n%s", w.id, got, w.sum, buf.String())
		}
	}
}
