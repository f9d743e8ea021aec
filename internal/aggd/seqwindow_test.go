package aggd

import (
	"math"
	"math/rand"
	"testing"
)

// seqModel is the reference a seqWindow is checked against: the plain set
// of every (epoch, seq) admitted so far, plus the per-epoch tallies the
// window's return values must add up to.
type seqModel struct {
	t        *testing.T
	w        seqWindow
	admitted map[[2]uint64]bool
	seen     bool
	epoch    uint64 // current (highest) epoch
	maxSeq   uint64 // highest seq admitted in it
	inEpoch  uint64 // distinct seqs admitted in it
	gaps     uint64 // Σ gap returned in it
	recov    uint64 // recovered verdicts in it
	overCap  bool   // a gap outran maxTrackedHoles in it: its retries may be refused
	nNew     int
	nRecov   int
}

// offer runs one (epoch, seq) through the window and holds the outcome to
// the model. Counter arithmetic is uint64 wraparound on both sides, so the
// identities hold at the top of the sequence space too.
func (m *seqModel) offer(epoch, seq uint64) {
	m.t.Helper()
	key := [2]uint64{epoch, seq}
	v, gap := m.w.admit(epoch, seq)
	fresh := !m.seen || epoch > m.epoch
	pastMark := fresh || (epoch == m.epoch && seq > m.maxSeq)
	switch {
	case v != seqDuplicate && m.admitted[key]:
		m.t.Fatalf("(%d, %d) admitted twice (verdict %d)", epoch, seq, v)
	case !fresh && epoch < m.epoch && v != seqDuplicate:
		m.t.Fatalf("(%d, %d) from a dead epoch admitted (current %d)", epoch, seq, m.epoch)
	case pastMark != (v == seqNew):
		m.t.Fatalf("(%d, %d) ruled %d with the high-water mark at (%d, %d)", epoch, seq, v, m.epoch, m.maxSeq)
	case !pastMark && epoch == m.epoch && !m.admitted[key] && !m.overCap && v != seqRecovered:
		m.t.Fatalf("(%d, %d) fills a tracked gap but was ruled %d", epoch, seq, v)
	case v != seqNew && gap != 0:
		m.t.Fatalf("(%d, %d) verdict %d reported gap %d", epoch, seq, v, gap)
	}
	if fresh {
		m.seen, m.epoch = true, epoch
		m.inEpoch, m.gaps, m.recov, m.overCap = 0, 0, 0, false
	}
	if v == seqDuplicate {
		return
	}
	m.admitted[key] = true
	m.inEpoch++
	if m.gaps-m.recov+gap > maxTrackedHoles {
		m.overCap = true // some of this gap went untracked
	}
	m.gaps += gap
	if v == seqNew {
		m.nNew++
		m.maxSeq = seq
	} else {
		m.nRecov++
		m.recov++
	}
	if m.nNew+m.nRecov != len(m.admitted) {
		m.t.Fatalf("new %d + recovered %d != %d distinct admitted", m.nNew, m.nRecov, len(m.admitted))
	}
	outstanding := m.maxSeq + 1 - m.inEpoch // seqs in [0, maxSeq] never admitted
	if m.gaps-m.recov != outstanding {
		m.t.Fatalf("after (%d, %d): Σgap %d - recovered %d != %d outstanding", epoch, seq, m.gaps, m.recov, outstanding)
	}
	if !m.overCap && uint64(len(m.w.holes)) != outstanding {
		m.t.Fatalf("after (%d, %d): %d tracked holes, %d outstanding", epoch, seq, len(m.w.holes), outstanding)
	}
}

// TestSeqWindowModel drives random (epoch, seq) streams — in-order runs,
// small and cap-busting gaps, retries and replays of earlier numbers, epoch
// bumps, stragglers from dead epochs, and epochs that open at the top of
// the sequence space — through a seqWindow and its reference model.
func TestSeqWindowModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &seqModel{t: t, admitted: make(map[[2]uint64]bool)}
		epoch, next := uint64(1+rng.Intn(3)), uint64(rng.Intn(4))
		for step := 0; step < 400; step++ {
			switch p := rng.Intn(100); {
			case p < 45: // in order
				m.offer(epoch, next)
				next++
			case p < 60: // skip a few: a gap a later retry may fill
				next += uint64(1 + rng.Intn(6))
				m.offer(epoch, next)
				next++
			case p < 85: // retry or replay of something at or below the mark
				if next > 0 {
					m.offer(epoch, next-1-uint64(rng.Int63n(int64(min(next, 40)))))
				}
			case p < 88: // a gap wider than the hole tracker
				next += maxTrackedHoles + uint64(rng.Intn(500))
				m.offer(epoch, next)
				next++
			case p < 94: // straggler from a dead (or not yet seen) epoch
				m.offer(epoch-uint64(rng.Intn(2)), uint64(rng.Intn(50)))
			case p < 98: // restart: new epoch, numbering starts over
				epoch++
				next = uint64(rng.Intn(3))
			default: // restart that opens at the very top of the space
				epoch++
				m.offer(epoch, math.MaxUint64)
				m.offer(epoch, 5000)           // below the mark, untracked: must not move it
				m.offer(epoch, math.MaxUint64) // so this replay stays a duplicate
				next = uint64(rng.Intn(2000))
			}
		}
	}
}
