package aggd

import (
	"errors"
	"fmt"
	"io"

	"zerosum/internal/export"
)

// FrameLog writes one rank's stream to a file as wire batch frames, one
// frame per sampling instant, so a rank's on-disk log (the .zsbp file) and
// its network shipments share one byte format. Frames are appended whole,
// so the file is readable while it is written and a crashed writer leaves a
// prefix that FrameScanner reads up to the torn frame. Every frame carries
// the rank's Origin, epoch 0 and a Seq that counts frames from 0.
type FrameLog struct {
	w      io.Writer
	origin Origin
	seq    uint64
	slots  []eventSlot // the instant being collected
	events []export.Event
	buf    []byte
	err    error
}

// NewFrameLog starts a log for origin on w.
func NewFrameLog(w io.Writer, origin Origin) *FrameLog {
	return &FrameLog{w: w, origin: origin}
}

// Subscriber returns the stream callback. Events sharing a timestamp form
// one instant; a new timestamp writes the instant just ended.
func (l *FrameLog) Subscriber() export.Subscriber {
	return func(ev export.Event) {
		if n := len(l.slots); n > 0 && l.slots[n-1].timeSec != ev.TimeSec {
			l.flush()
		}
		l.slots = append(l.slots, eventSlot{})
		l.slots[len(l.slots)-1].store(ev)
	}
}

// flush writes the collected instant as one frame. After the first error
// the log only discards; Close reports that error.
func (l *FrameLog) flush() {
	if len(l.slots) > 0 && l.err == nil {
		l.events = l.events[:0]
		for i := range l.slots {
			l.events = append(l.events, l.slots[i].event())
		}
		b := Batch{Origin: l.origin, Seq: l.seq, Events: l.events}
		if l.buf, l.err = AppendBatchFrame(l.buf[:0], &b); l.err == nil {
			_, l.err = l.w.Write(l.buf)
			l.seq++
		}
	}
	l.slots = l.slots[:0]
}

// Close writes the last instant and reports the first error the log met.
// It does not close the underlying writer.
func (l *FrameLog) Close() error {
	l.flush()
	return l.err
}

// ReplayFrameLog reads a FrameLog file and hands every event of every batch
// frame to fn, in file order, so a reader sees the stream the log recorded.
// Events are borrowed as on a live stream: valid only during the call. A
// stretch of corrupt bytes, a frame of another kind or a batch that does not
// decode is passed to skip and the replay goes on past it. Any other scan
// error, such as a frame torn by a writer that died mid-write, ends the
// replay and is returned; the events before it have been delivered.
func ReplayFrameLog(r io.Reader, fn export.Subscriber, skip func(error)) error {
	sc := NewFrameScanner(r)
	var bb BatchBuf
	for {
		kind, payload, err := sc.Next()
		var corrupt *CorruptFrameError
		switch {
		case err == io.EOF:
			return nil
		case errors.As(err, &corrupt):
			skip(err)
		case err != nil:
			return err
		case kind != FrameBatch:
			skip(fmt.Errorf("skipping a frame of kind %d, not a sample batch", kind))
		default:
			b, err := DecodeBatchPayloadInto(payload, &bb)
			if err != nil {
				skip(fmt.Errorf("skipping a batch frame: %w", err))
				continue
			}
			for _, ev := range b.Events {
				fn(ev)
			}
		}
	}
}
