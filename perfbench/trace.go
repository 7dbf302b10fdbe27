package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call. Spans of one profile or one request share an
// ID; Parent indexes the span that made the call (-1 for a root).
type span struct {
	ID     uint64        `json:"id"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs and untraced operations of a traced
// run skip span bookkeeping. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(id uint64, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (from absolute
// wall-clock times), returning its index.
func (t *tracer) add(id uint64, name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (concurrent
// calls) count once, and a child running past its parent counts only up to
// the parent's end.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, children[i])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name        string
	Count       int
	Self        time.Duration
	P50, Self50 float64 // milliseconds
}

// aggregate groups spans by name, in order of first appearance.
func aggregate(spans []span) []spanStat {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanStat
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanStat{Name: s.Name})
		}
		out[j].Count++
		out[j].Self += self[i]
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], ms(self[i]))
	}
	for i := range out {
		out[i].P50 = median(durs[out[i].Name])
		out[i].Self50 = median(selfs[out[i].Name])
	}
	return out
}

// medianMs returns the median duration in milliseconds of the spans named
// name (0 when there are none).
func medianMs(spans []span, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, ms(s.dur()))
		}
	}
	return median(xs)
}

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// printSpanTable writes the per-name span aggregate as text.
func printSpanTable(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-28s %7s %12s %12s %12s\n", "span", "count", "p50_ms", "self_p50_ms", "self_total_s")
	for _, st := range aggregate(spans) {
		fmt.Fprintf(w, "%-28s %7d %12.4f %12.4f %12.4f\n", st.Name, st.Count, st.P50, st.Self50, st.Self.Seconds())
	}
}
