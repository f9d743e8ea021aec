package aggd

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// jsonWriter appends a JSON document in exactly the form writeJSON's
// encoding/json Encoder gives it — two-space indent, HTML-safe string
// escaping, ES6-style floats, a trailing newline — without reflection, an
// intermediate value tree, or a second indenting pass. The TSDB views
// render through it because their bodies are large (a point per line) and
// their shape is fixed; everything else stays on writeJSON.
//
// Usage mirrors the document: open/close bracket a container, key names a
// member of the open object, elem starts a member of the open array, and
// the value methods append one scalar.
type jsonWriter struct {
	buf   []byte
	depth int
	empty bool  // the innermost open container has no member yet
	err   error // first value encoding/json would have refused
}

const jsonIndent = "                " // deepest view nests 5 levels = 10 spaces

// open starts an object ('{') or array ('[').
func (w *jsonWriter) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

// close ends the innermost container; an empty one stays on one line.
func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.empty = false
}

func (w *jsonWriter) newline() {
	w.buf = append(w.buf, '\n')
	w.buf = append(w.buf, jsonIndent[:2*w.depth]...)
}

// elem starts the next member of the open array.
func (w *jsonWriter) elem() {
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	w.newline()
}

// key starts the next member of the open object. Names are the views' own
// field names: plain ASCII, nothing to escape.
func (w *jsonWriter) key(name string) {
	w.elem()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, `": `...)
}

func (w *jsonWriter) int(v int) { w.buf = strconv.AppendInt(w.buf, int64(v), 10) }

func (w *jsonWriter) null() { w.buf = append(w.buf, "null"...) }

// float appends v the way encoding/json formats a float64: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 up, and the
// exponent's leading zero dropped (e-07 → e-7). NaN and infinities have no
// JSON form; they fail the document as they fail json.Marshal.
func (w *jsonWriter) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, v, format, -1, 64)
	if format == 'e' {
		if n := len(w.buf); n >= 4 && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
			w.buf[n-2] = w.buf[n-1]
			w.buf = w.buf[:n-1]
		}
	}
}

// str appends s as a JSON string. Node, metric and job names are almost
// always plain ASCII and go out as they are; anything encoding/json would
// escape (quotes, backslashes, control bytes, <>&, non-ASCII, invalid
// UTF-8) is handed to json.Marshal itself, so the two cannot disagree.
func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil && w.err == nil {
				w.err = err
			}
			w.buf = append(w.buf, b...)
			return
		}
	}
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '"')
}

// The *Field methods append one named scalar member of the open object.

func (w *jsonWriter) strField(name, v string) {
	w.key(name)
	w.str(v)
}

func (w *jsonWriter) intField(name string, v int) {
	w.key(name)
	w.int(v)
}

func (w *jsonWriter) floatField(name string, v float64) {
	w.key(name)
	w.float(v)
}

// finish closes the document with the Encoder's trailing newline and
// returns it, or the first encoding error.
func (w *jsonWriter) finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	w.buf = append(w.buf, '\n')
	return w.buf, nil
}
