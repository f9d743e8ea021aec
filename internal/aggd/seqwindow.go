package aggd

import "sync/atomic"

// maxTrackedHoles bounds the per-stream set of outstanding sequence gaps so
// a pathological sender cannot grow server memory; beyond the bound, a late
// retry of an untracked gap counts as a duplicate (data already counted
// lost), which errs on the side of never double-merging.
const maxTrackedHoles = 1024

// seqVerdict is a seqWindow's ruling on one (epoch, seq).
type seqVerdict uint8

const (
	seqNew       seqVerdict = iota // first sighting past the high-water mark: merge
	seqRecovered                   // late retry filling a tracked gap: merge
	seqDuplicate                   // replay or dead-incarnation straggler: do not merge
)

// tally adds a ruling and its gap to one tier's counters and reports whether
// the shipment carries new data to merge.
func (v seqVerdict) tally(gap uint64, lost, recovered, dup *atomic.Uint64) bool {
	if gap > 0 {
		lost.Add(gap)
	}
	switch v {
	case seqDuplicate:
		dup.Add(1)
		return false
	case seqRecovered:
		recovered.Add(1)
	}
	return true
}

// seqWindow is the dedup state machine of one numbered stream. A sender
// numbers its shipments 0,1,2,… within one epoch (incarnation) and resends
// the same (epoch, seq) on retry; a restarted sender starts a new epoch
// with seq back at 0. maxSeq is the highest admitted sequence of the current
// epoch and holes records skipped-over sequence numbers still outstanding,
// so a late retry of a gap shipment is merged exactly once while a replay
// of an already-admitted one is skipped. The per-origin batch dedup
// (rankState) and the per-leaf rollup dedup (leafSeq) each hold one. A
// window has no lock of its own: the //zerosum:guardedby on each holder's
// seqWindow field is the contract, and zslint checks it at every admit call
// (a //zerosum:locked here could only name one of the two locks).
type seqWindow struct {
	epoch  uint64
	maxSeq uint64
	seen   bool // false until first contact: epoch and maxSeq mean nothing yet
	holes  map[uint64]bool
}

// admit rules on (epoch, seq) and advances the window. gap is the number of
// sequence numbers this call newly counted as lost-until-proven-otherwise;
// the caller tallies both onto its own lost/recovered/duplicate counters.
//
// Ordering is by seq > maxSeq and gaps are sized seq-maxSeq-1, never via
// maxSeq+1: that sum wraps at the top of the sequence space and would let a
// replay of seq 2^64-1 be admitted twice.
func (w *seqWindow) admit(epoch, seq uint64) (v seqVerdict, gap uint64) {
	switch {
	case !w.seen || epoch > w.epoch:
		// First contact, or the sender restarted into a new incarnation:
		// sequence numbering starts over. Earlier shipments of the new epoch
		// that were dropped before this one arrived are gaps too.
		w.epoch, w.seen, w.holes = epoch, true, nil
		gap = seq
		w.noteHoles(0, seq)
	case epoch < w.epoch:
		// Replay from a dead incarnation (e.g. a retry that outlived its
		// sender's restart): everything it carries was already accounted.
		return seqDuplicate, 0
	case seq > w.maxSeq:
		gap = seq - w.maxSeq - 1
		w.noteHoles(w.maxSeq+1, seq)
	case w.holes[seq]: // a retry at or below maxSeq that fills a tracked gap
		delete(w.holes, seq)
		return seqRecovered, 0
	default: // a replay, or a retry of a gap past the tracking bound
		return seqDuplicate, 0
	}
	w.maxSeq = seq
	return seqNew, gap
}

// noteHoles tracks [lo, hi) as outstanding, up to maxTrackedHoles in all.
func (w *seqWindow) noteHoles(lo, hi uint64) {
	for q := lo; q < hi && len(w.holes) < maxTrackedHoles; q++ {
		if w.holes == nil {
			w.holes = make(map[uint64]bool)
		}
		w.holes[q] = true
	}
}
