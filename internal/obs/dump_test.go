package obs

import (
	"encoding/json"
	"fmt"
)

// StageByName maps a stage name back to its Stage; ok is false for an
// unknown name.
func StageByName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// DecodeDump parses and validates a /debug/obs document; the fuzz target
// and the round-trip tests hold EncodeDump to it. It is strict: unknown
// stage names, negative durations or counts, and inconsistent stage
// statistics are rejected, so a successful decode means the document could
// have been produced by EncodeDump.
func DecodeDump(data []byte) (Dump, error) {
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return Dump{}, err
	}
	seen := map[string]bool{}
	for i, s := range d.Stats {
		if _, ok := StageByName(s.Stage); !ok {
			return Dump{}, fmt.Errorf("obs: stats[%d]: unknown stage %q", i, s.Stage)
		}
		if seen[s.Stage] {
			return Dump{}, fmt.Errorf("obs: stats[%d]: duplicate stage %q", i, s.Stage)
		}
		seen[s.Stage] = true
		if s.Count == 0 && s.Errors == 0 {
			return Dump{}, fmt.Errorf("obs: stats[%d]: empty entry for %q", i, s.Stage)
		}
		if s.TotalNS < 0 || s.MaxNS < 0 || s.MeanNS < 0 {
			return Dump{}, fmt.Errorf("obs: stats[%d]: negative duration", i)
		}
		if s.MaxNS > s.TotalNS {
			return Dump{}, fmt.Errorf("obs: stats[%d]: max %d exceeds total %d", i, s.MaxNS, s.TotalNS)
		}
		if s.Count == 0 && s.TotalNS != 0 {
			return Dump{}, fmt.Errorf("obs: stats[%d]: duration without spans", i)
		}
	}
	for i, sp := range d.Spans {
		if _, ok := StageByName(sp.Stage); !ok {
			return Dump{}, fmt.Errorf("obs: spans[%d]: unknown stage %q", i, sp.Stage)
		}
		if sp.DurNS < 0 {
			return Dump{}, fmt.Errorf("obs: spans[%d]: negative duration", i)
		}
	}
	if s := d.Self; s != nil {
		if s.Samples < 0 || s.Degradations < 0 || s.StalledLWPs < 0 {
			return Dump{}, fmt.Errorf("obs: self: negative count")
		}
		if s.SelfCPUSec < 0 || s.TickWallSec < 0 || s.ElapsedSec < 0 ||
			s.OverheadPct < 0 || s.BudgetPct < 0 || s.PeriodSec < 0 {
			return Dump{}, fmt.Errorf("obs: self: negative duration")
		}
	}
	return d, nil
}
