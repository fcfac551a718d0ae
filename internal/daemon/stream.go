package daemon

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"parclust"
)

// Wire forms of a query answer. The hdbscan, dbscan, optics and emst
// answers are a head document plus one large array (labels, edges or the
// OPTICS order), described by an array value, and both wire forms are
// written from that one description:
//
//	buffered  the head's encoding/json bytes with the closing brace
//	          replaced by `,"<field>":[items]}`; an empty array is left out
//	NDJSON    (the request's Accept header names application/x-ndjson)
//	          one JSON object per line:
//	  line 1    the head
//	  lines 2+  chunk records {"<field>":[items]} of streamChunkSize items,
//	            in order
//	  last      a trailer {"done":true,"items":N} with the total item count
//
// Each head type declares its array as its last field, tagged omitempty,
// and leaves it nil. So the buffered form, and the stream reassembled by
// concatenating the chunks' items onto the head, are exactly what
// encoding/json writes for the head with the array set
// (TestArrayWriterMatchesEncodingJSON pins this). The items are appended
// under encoding/json's number rules, not reflected over: cut labels below
// 1,000 from a digit-pair table, every other number with strconv
// (FuzzArrayItems pins both).
//
// A buffered answer with items is assembled in a pooled buffer before its
// status line goes out, so a head encoding/json rejects answers 500. Every
// other buffered document (an answer without items, knn, range, a buffered
// sweep) goes through writeJSON, which encodes it straight to the
// connection and sends the status line with its one Write. A stream also
// encodes its head before committing its 200, then reuses one buffer for
// each record: it never holds more than one chunk. The stream writer
// flushes after every record and checks the request context before each,
// so a disconnected client stops the producer at the next chunk boundary.

// streamChunkSize is the number of array items carried per NDJSON chunk
// record. 8192 labels is ~64 KiB of JSON text — large enough to amortize
// the per-record write/flush, small enough that per-request peak memory
// stays far below a full n-point document. A var so tests can shrink it to
// exercise chunk boundaries without multi-hundred-thousand-point datasets.
var streamChunkSize = 8192

// wantsNDJSON reports whether the request opted into a streamed NDJSON
// response.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// streamTrailer is the final record of every complete NDJSON stream; a
// client that never sees one knows the stream was truncated.
type streamTrailer struct {
	Done  bool `json:"done"`
	Items int  `json:"items"`
}

// array is the large array of an answer: its field name in the response
// document, its length, and items, which appends the JSON values of items
// lo..hi-1, comma-separated. An answer whose field is "" does not stream.
type array struct {
	field string
	n     int
	items func(b []byte, lo, hi int) []byte
}

// appendField appends `"<field>":[items lo..hi-1]`.
func (a *array) appendField(b []byte, lo, hi int) []byte {
	b = append(b, '"')
	b = append(b, a.field...)
	b = append(b, `":[`...)
	return append(a.items(b, lo, hi), ']')
}

// splice turns head, a document's encoding ending in "}\n", into the
// buffered form with a's items, of which there is at least one, as its
// last field.
func (a *array) splice(head []byte) []byte {
	b := append(head[:len(head)-2], ',')
	b = a.appendField(b, 0, a.n)
	return append(b, "}\n"...)
}

// appendEach appends item's JSON value for each of xs, comma-separated.
// Inlined into an array's items with a named item function (appendEdge,
// appendBar), it calls item directly rather than through a func value per
// item.
func appendEach[T any](b []byte, xs []T, item func([]byte, T) []byte) []byte {
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = item(b, x)
	}
	return b
}

// labelArray is a flat cut's labels; labels=false leaves them out.
func labelArray(labels []int32, with bool) array {
	if !with {
		labels = nil
	}
	return array{field: "labels", n: len(labels), items: func(b []byte, lo, hi int) []byte {
		return appendLabels(b, labels[lo:hi])
	}}
}

// digitPairs holds the two decimal digits of every i < 100 at 2i.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendLabels appends labels in decimal, comma-separated. A cut's labels
// are -1 (noise) or cluster numbers, all below 1,000 on the serve-warm
// benchmark's cuts of 50,000 points, so every label below 1,000 is written
// in place from digitPairs, with no call per label; wider values go
// through appendInt.
func appendLabels(b []byte, labels []int32) []byte {
	for i, v := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		switch u := uint32(v); {
		case u < 10:
			b = append(b, byte('0'+u))
		case u < 100:
			b = append(b, digitPairs[2*u], digitPairs[2*u+1])
		case u < 1000:
			q, r := u/100, 2*(u%100)
			b = append(b, byte('0'+q), digitPairs[r], digitPairs[r+1])
		case v == -1:
			b = append(b, '-', '1')
		default:
			b = appendInt(b, v)
		}
	}
	return b
}

// edgeArray is an EMST's edges; edges=false leaves them out.
func edgeArray(edges []parclust.Edge, with bool) array {
	if !with {
		edges = nil
	}
	return array{field: "edges", n: len(edges), items: func(b []byte, lo, hi int) []byte {
		return appendEach(b, edges[lo:hi], appendEdge)
	}}
}

// barArray is an OPTICS order.
func barArray(entries []parclust.OPTICSEntry) array {
	return array{field: "order", n: len(entries), items: func(b []byte, lo, hi int) []byte {
		return appendEach(b, entries[lo:hi], appendBar)
	}}
}

// appendEdge appends e in edgeJSON's shape. Its weight is finite whenever
// the head's total_weight is, since weights are never negative.
func appendEdge(b []byte, e parclust.Edge) []byte {
	b = append(b, `{"u":`...)
	b = appendInt(b, e.U)
	b = append(b, `,"v":`...)
	b = appendInt(b, e.V)
	b = append(b, `,"w":`...)
	b = appendFloat(b, e.W)
	return append(b, '}')
}

// appendBar appends e in opticsBar's shape. Reachability is a distance, so
// it is finite or +Inf, which is written as null.
func appendBar(b []byte, e parclust.OPTICSEntry) []byte {
	b = append(b, `{"id":`...)
	b = appendInt(b, e.Idx)
	b = append(b, `,"reachability":`...)
	if math.IsInf(e.Reachability, 1) {
		return append(b, "null}"...)
	}
	b = appendFloat(b, e.Reachability)
	return append(b, '}')
}

// appendInt appends v in decimal.
func appendInt(b []byte, v int32) []byte {
	return strconv.AppendInt(b, int64(v), 10)
}

// appendFloat appends finite f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' when |f| < 1e-6 or |f| >= 1e21, with the
// leading zero of a one-digit negative exponent dropped (e-07 → e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// respBuf is a pooled response buffer.
type respBuf struct{ b []byte }

func (w *respBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// encodeJSON writes v as every response document and record is written:
// no HTML escaping, a trailing newline. json.Encoder writes nothing when it
// rejects v, and otherwise writes the whole document in one Write.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

var bufPool = sync.Pool{New: func() any { return new(respBuf) }}

// maxPooledBuf is the largest buffer the pool keeps, so that one huge
// answer does not stay resident after it is sent.
const maxPooledBuf = 1 << 20

// encodeHead encodes v into a pooled buffer, which the caller returns with
// putBuf. When encoding/json rejects v it answers 500 and returns nil.
func encodeHead(w http.ResponseWriter, v any) *respBuf {
	bb := bufPool.Get().(*respBuf)
	bb.b = bb.b[:0]
	if err := encodeJSON(bb, v); err != nil {
		putBuf(bb)
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return nil
	}
	return bb
}

func putBuf(bb *respBuf) {
	if cap(bb.b) <= maxPooledBuf {
		bufPool.Put(bb)
	}
}

// writeAnswer writes head with arr spliced in as one buffered JSON
// document, assembled in a pooled buffer before its status line goes out.
// An answer without items is its head alone, which writeJSON encodes
// straight to the connection.
func writeAnswer(w http.ResponseWriter, head any, arr array) {
	if arr.n == 0 {
		writeJSON(w, http.StatusOK, head)
		return
	}
	bb := encodeHead(w, head)
	if bb == nil {
		return
	}
	defer putBuf(bb)
	bb.b = arr.splice(bb.b)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(bb.b) // the status line is out; a failed write means the client is gone
}

// streamAnswer writes head and arr as an NDJSON stream.
func streamAnswer(w http.ResponseWriter, r *http.Request, head any, arr array) {
	sw := startStream(w, r, head)
	if sw == nil {
		return
	}
	defer sw.close()
	for lo := 0; lo < arr.n; lo += streamChunkSize {
		hi := min(lo+streamChunkSize, arr.n)
		b := append(sw.buf.b[:0], '{')
		b = arr.appendField(b, lo, hi)
		sw.buf.b = append(b, "}\n"...)
		if !sw.send() {
			return
		}
		sw.items += hi - lo
	}
	sw.finish()
}

// streamWriter sends NDJSON records from its pooled buffer, with a flush
// after every record and a context check before it. A write failure or
// client disconnect latches err; all further sends are no-ops, so producer
// loops can just stop on the first false return.
type streamWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	ctx     context.Context
	buf     *respBuf // the record to send next
	err     error
	items   int
}

// startStream encodes head, commits the response to NDJSON (status 200
// and the content type go out at once) and sends head as the first
// record, so every error past this point must be reported in-band or by
// truncation: callers validate everything first. It returns nil when
// nothing more can be sent, because encoding/json rejected head (answered
// 500) or the client is gone. The caller closes the writer it returns.
func startStream(w http.ResponseWriter, r *http.Request, head any) *streamWriter {
	bb := encodeHead(w, head)
	if bb == nil {
		return nil
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	f, _ := w.(http.Flusher)
	s := &streamWriter{w: w, flusher: f, ctx: r.Context(), buf: bb}
	if !s.send() {
		s.close()
		return nil
	}
	return s
}

// close returns the record buffer to the pool.
func (s *streamWriter) close() { putBuf(s.buf) }

// live reports whether the stream takes another record, latching the
// request context's error once the client is gone.
func (s *streamWriter) live() bool {
	if s.err == nil {
		s.err = s.ctx.Err()
	}
	return s.err == nil
}

// send writes the record in buf and flushes it; false means the stream is
// dead (client gone, context cancelled, or write failure) and the producer
// must stop.
func (s *streamWriter) send() bool {
	if !s.live() {
		return false
	}
	if _, err := s.w.Write(s.buf.b); err != nil {
		s.err = err
		return false
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return true
}

// write encodes v as one record and sends it.
func (s *streamWriter) write(v any) bool {
	if !s.live() {
		return false
	}
	s.buf.b = s.buf.b[:0]
	if err := encodeJSON(s.buf, v); err != nil {
		s.err = err
		return false
	}
	return s.send()
}

// finish emits the trailer record with the accumulated item count.
func (s *streamWriter) finish() {
	s.write(streamTrailer{Done: true, Items: s.items})
}
