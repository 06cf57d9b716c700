package main

import (
	"os"
	"sort"
	"sync"
	"time"

	"duplo/internal/trace"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (nothing inside the program is instrumented).
// Spans of one request or cell share ID; Parent is the index of the
// enclosing span, -1 for a root. Lane is the generator goroutine or pool
// worker that made the call, which becomes the Perfetto track.
type span struct {
	Name       string
	ID         int64
	Parent     int
	Lane       int
	Start, End time.Duration
}

func (s span) Dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op, so the untraced runs pay one
// nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	lanes []string
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// lane registers a named track and returns its index.
func (r *recorder) lane(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lanes = append(r.lanes, name)
	return len(r.lanes) - 1
}

// begin opens a span and returns its index for end (and as a parent).
func (r *recorder) begin(name string, id int64, parent, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Lane: lane, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the closed spans' list (open spans keep
// End = -1 and are skipped by the aggregations).
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children (children may overlap
// when a call fans out).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		out[i] = s.Dur() - covered(s, spans, kids[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, each
// clipped to the parent's.
func covered(p span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		if c.End < 0 {
			continue
		}
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writePerfetto exports the spans as Chrome/Perfetto trace-event JSON
// through the simulator's own trace.Timeline exporter, one track per lane,
// each span carrying its request/cell id.
func (r *recorder) writePerfetto(path, process string) error {
	if r == nil {
		return nil
	}
	tl := trace.NewTimeline(process)
	r.mu.Lock()
	for _, name := range r.lanes {
		tl.Track(name)
	}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		tl.SpanArg(s.Lane, s.Name, s.Start.Microseconds(), max(s.Dur().Microseconds(), 1), "id", s.ID)
	}
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
