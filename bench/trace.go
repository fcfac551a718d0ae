package main

// In-memory spans around the benchmark's calls into each layer, the JSON
// trace file they are written to, and the self-time summary computed from
// them. A nil *tracer records nothing, so untraced runs pay only for the
// clock reads their measurements need anyway.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call. Times are nanoseconds since the tracer started;
// Parent is 0 for a root span, and the spans of one request or repetition
// share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span measures: its name up to the first dot.
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	lastID int64
	// chunks hold the spans in fixed-size blocks, so that recording a span
	// never copies the earlier ones inside some measured repetition.
	chunks [][]span
}

const spanChunk = 4096

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so a root can be named as its children's parent
// before it ends. It returns 0 on a nil tracer.
func (tr *tracer) newID() int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.lastID++
	return tr.lastID
}

// add records a finished span under a reserved id.
func (tr *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if tr == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(tr.epoch).Nanoseconds(), End: end.Sub(tr.epoch).Nanoseconds()}
	tr.mu.Lock()
	if n := len(tr.chunks); n == 0 || len(tr.chunks[n-1]) == spanChunk {
		tr.chunks = append(tr.chunks, make([]span, 0, spanChunk))
	}
	last := &tr.chunks[len(tr.chunks)-1]
	*last = append(*last, s)
	tr.mu.Unlock()
}

// time runs fn, records it as a span when tracing, and returns its duration.
func (tr *tracer) time(name string, parent, req int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if tr != nil {
		tr.add(tr.newID(), parent, req, name, start, end)
	}
	return end.Sub(start)
}

// snapshot returns a copy of the spans recorded so far.
func (tr *tracer) snapshot() []span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return slices.Concat(tr.chunks...)
}

// spanCost measures what recording one span costs, by timing n spans into a
// scratch tracer.
func spanCost(n int) time.Duration {
	scratch := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		scratch.time("bench.probe", 0, int64(i), func() {})
	}
	return time.Since(start) / time.Duration(n)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (concurrent work) count once, and a
// child reaching past its parent counts only inside the parent.
func selfTime(parent span, children []span) time.Duration {
	return parent.dur() - covered(parent, children)
}

// covered returns how much of parent's interval the union of the children's
// intervals covers.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// traceSummary is the per-layer view of a trace.
type traceSummary struct {
	// SelfMs is each layer's total self time in milliseconds.
	SelfMs map[string]float64 `json:"self_ms"`
	// Roots counts root spans with children; MinCoverage is the smallest
	// share of such a root's interval its children cover (1 when none).
	Roots       int     `json:"roots"`
	MinCoverage float64 `json:"min_coverage"`
}

func summarize(spans []span) traceSummary {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum := traceSummary{SelfMs: map[string]float64{}, MinCoverage: 1}
	for _, s := range spans {
		kids := children[s.ID]
		sum.SelfMs[s.layer()] += float64(selfTime(s, kids)) / 1e6
		if s.Parent == 0 && len(kids) > 0 && s.dur() > 0 {
			sum.Roots++
			sum.MinCoverage = min(sum.MinCoverage, float64(covered(s, kids))/float64(s.dur()))
		}
	}
	return sum
}

// writeTrace writes the spans and their summary as one JSON document.
func writeTrace(path string, spans []span, sum traceSummary) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Summary traceSummary `json:"summary"`
		Spans   []span       `json:"spans"`
	}{sum, spans}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	return nil
}
