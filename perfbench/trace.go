package main

import (
	"fmt"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layers. Each client goroutine owns one tracer, so recording takes no
// lock. A transaction's spans stay in memory until its root span ends,
// then fold into per-layer totals. A nil *tracer records nothing, which
// is how untraced runs measure end-to-end metrics.
type tracer struct {
	t0    time.Time
	spans []span // the open root span and its descendants
	open  int32  // index of the innermost open span, -1 at top level
	lt    layerTimes
	err   error // first malformed span tree
}

type span struct {
	name       spanName
	parent     int32 // -1 for a root span
	start, end time.Duration
	sim        int64 // simulated ns inside the span, when the layer has a clock
}

// spanName names the layer call a span wraps.
type spanName uint8

const (
	spanTx           spanName = iota // one whole transaction, retries included
	spanClientRead                   // wire: the three pipelined balance reads
	spanClientCommit                 // wire: the pipelined BEGIN..COMMIT burst
	spanBegin                        // DB.Begin
	spanCommit                       // Tx.Commit
	spanAbort                        // Tx.Abort
	spanRead                         // Table.Read
	spanUpdate                       // Table.Update
	spanLookup                       // Index.Lookup
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"tx", "client.read", "client.commit", "engine.begin", "wal.commit",
	"engine.abort", "engine.read", "engine.update", "index.lookup",
}

func (n spanName) String() string { return spanNames[n] }

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0, open: -1} }

// begin opens a span as a child of the innermost open span and returns
// its handle for end.
func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: t.open, start: time.Since(t.t0)})
	id := int32(len(t.spans) - 1)
	t.open = id
	return id
}

// end closes span id, recording simNs simulated nanoseconds inside it.
// Spans must close innermost first; closing any other span marks the
// trace malformed.
func (t *tracer) end(id int32, simNs int64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	if id != t.open && t.err == nil {
		t.err = fmt.Errorf("trace: span %v ended before a span inside it", s.name)
	}
	s.end = time.Since(t.t0)
	s.sim = simNs
	t.open = s.parent
	if s.parent < 0 {
		t.fold()
	}
}

// layerTimes is the per-layer aggregate of traced spans.
type layerTimes struct {
	count    [numSpanNames]int
	self     [numSpanNames]time.Duration // wall time not covered by child spans
	total    [numSpanNames]time.Duration // whole span durations
	sim      [numSpanNames]int64
	commitUs []float64     // each client.commit span's duration, for its p99
	roots    time.Duration // Σ root span durations
}

// fold adds the finished root span's tree to the totals and checks it:
// every span has ended and every child lies inside its parent, so the
// tree's self times partition the root's duration.
func (t *tracer) fold() {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		d := s.end - s.start
		if d < 0 && t.err == nil {
			t.err = fmt.Errorf("trace: span %v never ended", s.name)
		}
		self[i] += d
		if s.parent < 0 {
			t.lt.roots += d
			continue
		}
		p := t.spans[s.parent]
		if (s.start < p.start || s.end > p.end) && t.err == nil {
			t.err = fmt.Errorf("trace: span %v escapes its parent %v", s.name, p.name)
		}
		self[s.parent] -= d
	}
	for i, s := range t.spans {
		t.lt.count[s.name]++
		t.lt.self[s.name] += self[i]
		t.lt.total[s.name] += s.end - s.start
		t.lt.sim[s.name] += s.sim
		if s.name == spanClientCommit {
			t.lt.commitUs = append(t.lt.commitUs, float64(s.end-s.start)/1e3)
		}
	}
	t.spans = t.spans[:0]
}

// aggregate merges the tracers' totals, failing if any span tree was
// malformed or a root span never ended.
func aggregate(tracers []*tracer) (layerTimes, error) {
	var lt layerTimes
	for _, t := range tracers {
		if t.err != nil {
			return lt, t.err
		}
		if len(t.spans) > 0 {
			return lt, fmt.Errorf("trace: span %v never ended", t.spans[0].name)
		}
		for n := range lt.count {
			lt.count[n] += t.lt.count[n]
			lt.self[n] += t.lt.self[n]
			lt.total[n] += t.lt.total[n]
			lt.sim[n] += t.lt.sim[n]
		}
		lt.commitUs = append(lt.commitUs, t.lt.commitUs...)
		lt.roots += t.lt.roots
	}
	return lt, nil
}

// meanUs is the mean duration of the named spans in µs.
func (lt layerTimes) meanUs(n spanName) float64 {
	if lt.count[n] == 0 {
		return 0
	}
	return float64(lt.total[n]) / 1e3 / float64(lt.count[n])
}

// meanSimUs is the mean simulated time of the named spans in µs.
func (lt layerTimes) meanSimUs(n spanName) float64 {
	if lt.count[n] == 0 {
		return 0
	}
	return float64(lt.sim[n]) / 1e3 / float64(lt.count[n])
}
