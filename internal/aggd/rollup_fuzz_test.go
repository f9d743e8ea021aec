package aggd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// rollupFuzzSeeds builds the seed corpus for FuzzRollupFrameDecode: healthy
// rollup frames, a mixed batch/rollup stream, and near-miss damage so the
// fuzzer starts past the magic and CRC checks.
func rollupFuzzSeeds(t testing.TB) map[string][]byte {
	full := &RollupMsg{
		LeafID:    "leaf-0:9101",
		LeafEpoch: 3,
		Seq:       12,
		Batches: []Batch{
			mkRollupBatch("n00", 0, 2, 5, 3),
			mkRollupBatch("n01", 1, 1, 0, 1),
		},
		Snapshots: []SnapshotMsg{{
			Origin:   Origin{Job: "jr", Node: "n00", Rank: 0},
			Snapshot: testSnapshot(0, "n00"),
			CommRow:  map[int]uint64{1: 2048},
		}},
	}
	rf, err := AppendRollupFrame(nil, full)
	if err != nil {
		t.Fatalf("seed rollup: %v", err)
	}
	empty, err := AppendRollupFrame(nil, &RollupMsg{LeafID: "leaf-1:9101", LeafEpoch: 1})
	if err != nil {
		t.Fatalf("seed empty rollup: %v", err)
	}

	// A mixed stream the resyncing scanner must survive: a foreign-version
	// (v2) batch, rollup, torn-write garbage, batch, then a bit-flipped
	// rollup.
	b3 := mkRollupBatch("n03", 3, 1, 0, 2)
	bf, err := EncodeBatchFrame(&b3)
	if err != nil {
		t.Fatalf("seed batch: %v", err)
	}
	flipped := append([]byte(nil), rf...)
	flipped[len(flipped)-5] ^= 0x10
	var mixed []byte
	mixed = append(mixed, legacyV2Frame...)
	mixed = append(mixed, rf...)
	mixed = append(mixed, []byte("torn-write-residue")...)
	mixed = append(mixed, bf...)
	mixed = append(mixed, flipped...)

	// A frame whose CRC is valid but whose batch count could never fit the
	// remaining bytes: the structural walk must reject it before sizing
	// anything from the count.
	dst := appendHeader(nil, FrameRollup)
	if dst, err = appendString(dst, "evil"); err != nil {
		t.Fatalf("seed hostile: %v", err)
	}
	dst = binary.LittleEndian.AppendUint64(dst, 1)
	dst = binary.LittleEndian.AppendUint64(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, 0xFFFFFFFF)
	hostile, err := finishFrame(dst)
	if err != nil {
		t.Fatalf("seed hostile: %v", err)
	}

	return map[string][]byte{
		"seed_rollup":    rf,
		"seed_empty":     empty,
		"seed_mixed":     mixed,
		"seed_truncated": append([]byte(nil), rf[:len(rf)-9]...),
		"seed_bitflip":   flipped,
		"seed_hostile":   hostile,
	}
}

// FuzzRollupFrameDecode throws arbitrary bytes at the resyncing scanner's
// rollup path: the structural walk and the full decoder. Invariants: no
// panic, the scanner terminates on every input, and every rollup payload
// it yields passes checkRollupPayload.
func FuzzRollupFrameDecode(f *testing.F) {
	for _, seed := range rollupFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte("ZSAG"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The ingest path: scan the input as a stream, checking every rollup
		// frame that survives its CRC. Must terminate and never panic.
		sc := NewFrameScanner(bytes.NewReader(data))
		for steps := 0; ; steps++ {
			if steps > len(data)+16 {
				t.Fatalf("scanner failed to terminate on %d-byte input", len(data))
			}
			kind, payload, err := sc.Next()
			if err == nil {
				if kind == FrameRollup {
					checkRollupPayload(t, payload)
				}
				continue
			}
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			var ce *CorruptFrameError
			if errors.As(err, &ce) {
				continue
			}
			break // terminal transport error (truncation mid-frame)
		}
	})
}

// checkRollupPayload holds one CRC-clean rollup payload to the fuzz
// invariants: walk and decode agree on structural validity, and a cleanly
// decoded rollup re-encodes into a frame that decodes back to the same
// structure.
func checkRollupPayload(t *testing.T, payload []byte) {
	var view rollupView
	walkErr := walkRollupPayload(payload, &view)
	ru, decErr := DecodeRollupPayload(payload, WireVersion)
	if walkErr != nil && decErr == nil {
		t.Fatalf("walk rejected what the decoder accepted: %v", walkErr)
	}
	if walkErr == nil && len(view.batches)+len(view.snaps) > 0 && len(payload) < minRollupPayload {
		t.Fatalf("walk accepted an impossible %d-byte payload", len(payload))
	}
	if decErr != nil {
		return
	}
	re, err := AppendRollupFrame(nil, ru)
	if err != nil {
		t.Fatalf("decoded rollup failed to re-encode: %v", err)
	}
	// Embedded snapshot JSON is not byte-canonical (a fuzzed body may order
	// keys differently), so the invariant is structural: the re-encoded
	// frame decodes back to the same shape.
	ru2, err := DecodeRollupPayload(re[FrameHeaderLen:], WireVersion)
	if err != nil {
		t.Fatalf("re-encoded rollup failed to decode: %v", err)
	}
	if ru2.LeafID != ru.LeafID || ru2.LeafEpoch != ru.LeafEpoch || ru2.Seq != ru.Seq ||
		len(ru2.Batches) != len(ru.Batches) || len(ru2.Snapshots) != len(ru.Snapshots) {
		t.Fatalf("rollup round-trip changed shape: %+v vs %+v", ru, ru2)
	}
	for i := range ru.Batches {
		if ru2.Batches[i].Origin != ru.Batches[i].Origin ||
			len(ru2.Batches[i].Events) != len(ru.Batches[i].Events) {
			t.Fatalf("rollup round-trip changed batch %d", i)
		}
	}
}

// TestRollupFuzzSeedCorpus pins both checked-in fuzz corpora (this file's
// and FuzzWireDecode's), reusing the golden files' -update flag: the bytes
// on disk must match what today's encoder produces, so a wire-layout change
// that silently invalidates a corpus fails here first.
func TestRollupFuzzSeedCorpus(t *testing.T) {
	for target, gen := range map[string]func(testing.TB) map[string][]byte{
		"FuzzRollupFrameDecode": rollupFuzzSeeds,
		"FuzzWireDecode":        fuzzSeedFrames,
	} {
		checkFuzzSeedCorpus(t, filepath.Join("testdata", "fuzz", target), gen(t))
	}
}

func checkFuzzSeedCorpus(t *testing.T, dir string, seeds map[string][]byte) {
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, frame := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(frame)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, want := range seeds {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v (run `make corpus-update` to regenerate the corpus)", name, err)
		}
		got, err := parseRollupCorpusFile(raw)
		if err != nil {
			t.Fatalf("%s/%s: %v", dir, name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s/%s: checked-in corpus drifted from the generator (run `make corpus-update`)", dir, name)
		}
	}
}

// parseRollupCorpusFile reads the single []byte value of a `go test fuzz v1`
// corpus entry.
func parseRollupCorpusFile(raw []byte) ([]byte, error) {
	s := string(raw)
	const header = "go test fuzz v1\n[]byte("
	if len(s) < len(header) || s[:len(header)] != header {
		return nil, errors.New("not a go fuzz v1 []byte entry")
	}
	s = s[len(header):]
	if i := len(s) - 1; i >= 0 && s[i] == '\n' {
		s = s[:i]
	}
	if len(s) == 0 || s[len(s)-1] != ')' {
		return nil, errors.New("unterminated corpus entry")
	}
	v, err := strconv.Unquote(s[:len(s)-1])
	if err != nil {
		return nil, err
	}
	return []byte(v), nil
}
