package tsdb

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// updateCorpus regenerates the checked-in fuzz seed corpus, mirroring the
// golden files' -update convention.
var updateCorpus = flag.Bool("update", false, "rewrite the checked-in fuzz seed corpus")

// fuzzSeedBlobs builds well-formed block blobs plus near-miss mutations so
// the fuzzer starts past the magic/CRC checks.
func fuzzSeedBlobs(t testing.TB) map[string][]byte {
	st := NewStore(Options{Block: 10 * time.Second})
	for r := 0; r < 2; r++ {
		key := SeriesKey{Node: "n00", Rank: r, TID: 1000 + r, Metric: "lwp.nvctx"}
		for i := 0; i < 25; i++ {
			st.Append("fuzz", key, int64(i)*1e9, float64(r*100+i))
		}
	}
	st.Append("fuzz", SeriesKey{Node: "n01", Rank: 2, TID: 3, Metric: "mem.free_kb"},
		5e8, math.Inf(1))
	blob, err := st.MarshalJob("fuzz")
	if err != nil {
		t.Fatalf("seed blob: %v", err)
	}

	empty := NewStore(Options{})
	empty.Append("fuzz", SeriesKey{Node: "n", Metric: "m"}, 0, 0)
	small, err := empty.MarshalJob("fuzz")
	if err != nil {
		t.Fatalf("small seed blob: %v", err)
	}

	truncated := append([]byte(nil), blob[:len(blob)-7]...)
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/3] ^= 0x20
	return map[string][]byte{
		"seed_blocks":        blob,
		"seed_single":        small,
		"seed_truncated":     truncated,
		"seed_bitflip":       flipped,
		"seed_magic":         append([]byte(blockMagic), blockVersion),
		"seed_hostile_count": oneChunkBlob(t, maxChunkSamples+1),
	}
}

// FuzzTSDBBlockDecode throws arbitrary bytes at the block decoder and, for
// anything that decodes, at the chunk bitstream decoder. Invariants: no
// panic, no over-read (hostile counts are rejected before they size
// allocations), a decoded chunk declares at most maxChunkSamples samples,
// and it never yields more samples than it declares.
func FuzzTSDBBlockDecode(f *testing.F) {
	for _, seed := range fuzzSeedBlobs(f) {
		f.Add(seed)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		bs, err := UnmarshalBlocks(data)
		if err != nil {
			return
		}
		// The CRC makes a clean decode of mutated input astronomically
		// unlikely, but the fuzzer can still synthesize valid blobs;
		// everything reachable from one must stay in bounds.
		for _, s := range bs.Series {
			for _, c := range s.Chunks {
				if c.Count > maxChunkSamples {
					t.Fatalf("chunk declares %d samples, more than a chunk holds (%d)", c.Count, maxChunkSamples)
				}
				pts, err := c.Samples()
				if len(pts) > c.Count {
					t.Fatalf("chunk decoded %d samples, declared %d", len(pts), c.Count)
				}
				if err == nil && len(pts) != c.Count {
					t.Fatalf("clean decode of %d samples, declared %d", len(pts), c.Count)
				}
			}
		}
	})
}

// TestFuzzSeedCorpus pins the checked-in corpus: every seed decodes (or is
// rejected) without panicking, and the well-formed seeds stay canonical —
// the bytes on disk match what MarshalJob produces today, so a codec or
// layout change that silently invalidates the corpus fails here first.
func TestFuzzSeedCorpus(t *testing.T) {
	seeds := fuzzSeedBlobs(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzTSDBBlockDecode")
	if *updateCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, blob := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(blob)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, want := range seeds {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate the corpus)", name, err)
		}
		got, err := parseCorpusFile(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: checked-in corpus drifted from the generator (run with -update)", name)
		}
	}
}

// parseCorpusFile reads the single []byte value of a `go test fuzz v1`
// corpus entry.
func parseCorpusFile(raw []byte) ([]byte, error) {
	s := string(raw)
	const header = "go test fuzz v1\n[]byte("
	if len(s) < len(header) || s[:len(header)] != header {
		return nil, fmt.Errorf("not a go fuzz v1 []byte entry")
	}
	s = s[len(header):]
	if i := len(s) - 1; i >= 0 && s[i] == '\n' {
		s = s[:i]
	}
	if len(s) == 0 || s[len(s)-1] != ')' {
		return nil, fmt.Errorf("unterminated corpus entry")
	}
	v, err := strconv.Unquote(s[:len(s)-1])
	if err != nil {
		return nil, err
	}
	return []byte(v), nil
}
