// Package chaos is the fault-injection layer for ZeroSum's aggregation
// pipeline: seeded, replayable network and filesystem faults plus a
// multi-agent soak harness that drives real aggd agents through them and
// audits the pipeline's accounting invariants. The paper positions ZeroSum
// as an always-on monitor (§3, §4.1); this package is where "always-on"
// is earned — every fault schedule derives from one seed through
// internal/sim's deterministic RNG, so any soak failure replays from the
// seed it prints.
package chaos

import (
	"sync"
	"sync/atomic"
	"time"

	"zerosum/internal/sim"
)

// FaultProfile sets the per-request probability of each fault class. A zero
// profile injects nothing. Probabilities are evaluated independently per
// request in a fixed order, each consuming exactly one RNG draw whether or
// not it fires, so disabling one class never shifts another's schedule.
type FaultProfile struct {
	// DropRequest loses the request before the server sees it (a dead
	// link or dropped SYN): the client gets an error, the server nothing.
	DropRequest float64
	// DropResponse loses the server's reply after the request was fully
	// processed — the pipeline's hardest case, since the client must
	// retry work the server already applied.
	DropResponse float64
	// Delay stalls the request by a uniform fraction of MaxDelay before
	// it is forwarded.
	Delay    float64
	MaxDelay time.Duration
	// CorruptFlip flips one random bit of the request body in flight.
	CorruptFlip float64
	// CorruptTruncate cuts the body to a random prefix.
	CorruptTruncate float64
	// CorruptGarbage prepends random bytes to the body (a torn write from
	// a previous connection re-surfacing).
	CorruptGarbage float64
	// Partition opens a network partition with this probability per
	// request; while open, the next PartitionLen requests all drop.
	Partition    float64
	PartitionLen int
	// CutConn severs a server-side connection per read with this
	// probability, truncating whatever was mid-flight.
	CutConn float64
}

// AllFaults returns a profile with every fault class enabled at soak-test
// rates: high enough that a few hundred requests hit each class, low enough
// that the run still converges.
func AllFaults() FaultProfile {
	return FaultProfile{
		DropRequest:     0.10,
		DropResponse:    0.08,
		Delay:           0.15,
		MaxDelay:        3 * time.Millisecond,
		CorruptFlip:     0.06,
		CorruptTruncate: 0.04,
		CorruptGarbage:  0.04,
		Partition:       0.03,
		PartitionLen:    8,
		CutConn:         0.03,
	}
}

// CorruptKind says how a request body is mangled.
type CorruptKind int

// Body corruption kinds.
const (
	CorruptNone CorruptKind = iota
	CorruptBitFlip
	CorruptTruncated
	CorruptGarbagePrefix
)

// Verdict is one request's fate, fully determined at decision time so the
// transport applies it without consuming further randomness.
type Verdict struct {
	DropRequest  bool
	DropResponse bool
	Delay        time.Duration
	Corrupt      CorruptKind
	FlipBit      uint64  // bit index (mod body bits) for CorruptBitFlip
	TruncFrac    float64 // kept prefix fraction for CorruptTruncated
	GarbageSeed  uint64  // seeds the prepended bytes for CorruptGarbagePrefix
}

// InjectorStats counts what an injector actually did.
type InjectorStats struct {
	Decisions      uint64
	DroppedReqs    uint64
	DroppedResps   uint64
	Delays         uint64
	Corruptions    uint64
	PartitionDrops uint64
	ConnCuts       uint64
}

// Injector turns a FaultProfile and a seeded RNG into per-request verdicts.
// It is safe for concurrent use; the decision order (and therefore the
// fault schedule) is deterministic per injector as long as its callers
// issue requests in a deterministic order, which holds for an aggd agent's
// single sender goroutine.
type Injector struct {
	mu       sync.Mutex
	rng      *sim.RNG     //zerosum:guardedby mu draws mutate the RNG stream
	p        FaultProfile // immutable after NewInjector
	partLeft int          //zerosum:guardedby mu

	healed atomic.Bool

	decisions      atomic.Uint64
	droppedReqs    atomic.Uint64
	droppedResps   atomic.Uint64
	delays         atomic.Uint64
	corruptions    atomic.Uint64
	partitionDrops atomic.Uint64
	connCuts       atomic.Uint64
}

// NewInjector builds an injector over its own RNG (pass a Fork of the run's
// master RNG so injectors never perturb each other's streams).
func NewInjector(rng *sim.RNG, p FaultProfile) *Injector {
	if p.PartitionLen <= 0 {
		p.PartitionLen = 4
	}
	return &Injector{rng: rng, p: p}
}

// Heal permanently disables all future faults; in-flight verdicts stand.
// The soak's convergence phase heals the network so every surviving agent
// can deliver its final state.
func (in *Injector) Heal() { in.healed.Store(true) }

// Decide draws one request's verdict.
func (in *Injector) Decide() Verdict {
	if in.healed.Load() {
		return Verdict{}
	}
	in.mu.Lock()
	r := in.rng
	// Fixed draw order; every class consumes its draws unconditionally.
	enterPartition := r.Bool(in.p.Partition)
	dropReq := r.Bool(in.p.DropRequest)
	dropResp := r.Bool(in.p.DropResponse)
	delay := r.Bool(in.p.Delay)
	delayFrac := r.Float64()
	flip := r.Bool(in.p.CorruptFlip)
	flipBit := r.Uint64()
	trunc := r.Bool(in.p.CorruptTruncate)
	truncFrac := r.Float64()
	garbage := r.Bool(in.p.CorruptGarbage)
	garbageSeed := r.Uint64()

	var v Verdict
	if in.partLeft > 0 {
		in.partLeft--
		in.mu.Unlock()
		in.partitionDrops.Add(1)
		in.decisions.Add(1)
		v.DropRequest = true
		return v
	}
	if enterPartition {
		in.partLeft = in.p.PartitionLen
	}
	in.mu.Unlock()

	in.decisions.Add(1)
	if delay {
		in.delays.Add(1)
		v.Delay = time.Duration(delayFrac * float64(in.p.MaxDelay))
	}
	if dropReq {
		in.droppedReqs.Add(1)
		v.DropRequest = true
		return v
	}
	switch {
	case flip:
		v.Corrupt, v.FlipBit = CorruptBitFlip, flipBit
	case trunc:
		v.Corrupt, v.TruncFrac = CorruptTruncated, truncFrac
	case garbage:
		v.Corrupt, v.GarbageSeed = CorruptGarbagePrefix, garbageSeed
	}
	if v.Corrupt != CorruptNone {
		in.corruptions.Add(1)
	}
	if dropResp {
		in.droppedResps.Add(1)
		v.DropResponse = true
	}
	return v
}

// CutNow draws one connection-cut decision (used per server-side read).
func (in *Injector) CutNow() bool {
	if in.healed.Load() {
		return false
	}
	in.mu.Lock()
	cut := in.rng.Bool(in.p.CutConn)
	in.mu.Unlock()
	if cut {
		in.connCuts.Add(1)
	}
	return cut
}

// Stats snapshots the injector's counters.
func (in *Injector) Stats() InjectorStats {
	return InjectorStats{
		Decisions:      in.decisions.Load(),
		DroppedReqs:    in.droppedReqs.Load(),
		DroppedResps:   in.droppedResps.Load(),
		Delays:         in.delays.Load(),
		Corruptions:    in.corruptions.Load(),
		PartitionDrops: in.partitionDrops.Load(),
		ConnCuts:       in.connCuts.Load(),
	}
}

// Mangle applies v's corruption to body, returning a new slice (the input
// is never modified) or the input itself when the verdict is clean.
func Mangle(body []byte, v Verdict) []byte {
	if len(body) == 0 {
		return body
	}
	switch v.Corrupt {
	case CorruptBitFlip:
		out := append([]byte(nil), body...)
		bit := v.FlipBit % uint64(len(out)*8)
		out[bit/8] ^= 1 << (bit % 8)
		return out
	case CorruptTruncated:
		n := int(v.TruncFrac * float64(len(body)))
		if n >= len(body) {
			n = len(body) - 1
		}
		return append([]byte(nil), body[:n]...)
	case CorruptGarbagePrefix:
		r := sim.NewRNG(v.GarbageSeed)
		n := 1 + r.Intn(32)
		out := make([]byte, 0, n+len(body))
		for i := 0; i < n; i++ {
			out = append(out, byte(r.Uint64()))
		}
		return append(out, body...)
	default:
		return body
	}
}
