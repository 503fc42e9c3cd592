package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/set"
)

// SpanKind classifies a span's level in the query hierarchy.
type SpanKind uint8

const (
	// SpanQuery is the root span covering the whole query lifecycle.
	SpanQuery SpanKind = iota
	// SpanPhase covers one lifecycle phase (parse, plan, freeze,
	// compile, execute, output).
	SpanPhase
	// SpanNode covers one GHD node's WCOJ execution (children included).
	SpanNode
	// SpanKernel covers one specialized kernel invocation (dense BLAS,
	// SpMV fast path, scalar scan).
	SpanKernel
)

func (k SpanKind) String() string {
	switch k {
	case SpanQuery:
		return "query"
	case SpanPhase:
		return "phase"
	case SpanNode:
		return "node"
	case SpanKernel:
		return "kernel"
	}
	return "?"
}

// SpanID names one span inside its trace; 0 is "no span" and every
// operation on it is a no-op, so callers thread IDs without nil checks.
type SpanID int32

// Span is one recorded interval. Start/End are nanoseconds since the
// trace base (End == -1 while the span is open). Stats carries the
// intersection-kernel counters attributed to exactly this span (set for
// GHD-node spans; zero elsewhere).
type Span struct {
	ID     SpanID
	Parent SpanID
	Kind   SpanKind
	Name   string
	Start  int64
	End    int64
	Stats  set.Stats
}

// Dur is the span's duration (0 while open).
func (s *Span) Dur() time.Duration {
	if s.End < 0 {
		return 0
	}
	return time.Duration(s.End - s.Start)
}

// maxSpans bounds one trace's buffer; spans beyond it are counted as
// dropped rather than grown without bound (a runaway GHD would
// otherwise turn the trace into the memory hog it is meant to debug).
const maxSpans = 512

// Trace is one query's span buffer. All methods are safe on a nil
// receiver (no-ops), so execution code records spans unconditionally
// and pays nothing when tracing is not wired up.
type Trace struct {
	id   uint64 // registry-assigned query ID (0 until registered)
	sql  string
	base time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewTrace starts a trace whose root span is the query itself.
func NewTrace(sql string) *Trace {
	t := &Trace{sql: sql, base: time.Now(), spans: make([]Span, 0, 16)}
	t.spans = append(t.spans, Span{ID: 1, Kind: SpanQuery, Name: "query", End: -1})
	return t
}

// ID reports the registry-assigned query ID (0 if never registered).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// SQL reports the traced query text.
func (t *Trace) SQL() string {
	if t == nil {
		return ""
	}
	return t.sql
}

// setID is called once by the registry before the trace is shared.
func (t *Trace) setID(id uint64) { t.id = id }

// Root is the query span's ID.
func (t *Trace) Root() SpanID {
	if t == nil {
		return 0
	}
	return 1
}

// Begin opens a child span under parent and returns its ID.
func (t *Trace) Begin(parent SpanID, kind SpanKind, name string) SpanID {
	if t == nil || parent == 0 {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return 0
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Kind: kind, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// End closes a span.
func (t *Trace) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	if int(id) <= len(t.spans) {
		t.spans[id-1].End = now
	}
	t.mu.Unlock()
}

// EndWithStats closes a span and attaches kernel counters to it.
func (t *Trace) EndWithStats(id SpanID, st *set.Stats) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	if int(id) <= len(t.spans) {
		sp := &t.spans[id-1]
		sp.End = now
		sp.Stats = *st
	}
	t.mu.Unlock()
}

// Add records an already-measured interval (used where the caller owns
// the time.Now pair, e.g. the core phase timers).
func (t *Trace) Add(parent SpanID, kind SpanKind, name string, start, end time.Time) SpanID {
	if t == nil || parent == 0 {
		return 0
	}
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return 0
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Kind: kind, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
	})
	t.mu.Unlock()
	return id
}

// Finish closes the root span.
func (t *Trace) Finish() { t.End(t.Root()) }

// Dropped reports how many spans overflowed the buffer.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns a copy of the recorded spans in creation order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Current reports the name of the innermost still-open span — what the
// query is doing right now (registry listing of in-flight queries).
func (t *Trace) Current() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].End < 0 {
			return t.spans[i].Name
		}
	}
	return ""
}

// TreeString renders the spans as an indented tree with durations and,
// where attached, kernel counters.
func (t *Trace) TreeString() string {
	if t == nil {
		return ""
	}
	spans := t.Spans()
	children := make(map[SpanID][]int, len(spans))
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], i)
	}
	var b strings.Builder
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		sp := &spans[idx]
		dur := "open"
		if sp.End >= 0 {
			dur = sp.Dur().Round(time.Microsecond).String()
		}
		fmt.Fprintf(&b, "%s%-7s %s  %s", strings.Repeat("  ", depth), sp.Kind, sp.Name, dur)
		if sp.Stats.Total() > 0 {
			fmt.Fprintf(&b, "  isect=%d bytes=%d", sp.Stats.Total(), sp.Stats.BytesOut)
		}
		b.WriteByte('\n')
		for _, c := range children[sp.ID] {
			walk(c, depth+1)
		}
	}
	for _, rootIdx := range children[0] {
		walk(rootIdx, 0)
	}
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, "(%d spans dropped)\n", d)
	}
	return b.String()
}

// chromeEvent is one Chrome trace_event ("X" = complete event); ts/dur
// are microseconds per the trace-event format.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]uint64 `json:"args,omitempty"`
}

// ChromeTraceJSON exports the trace in Chrome trace_event JSON (array
// form), loadable in chrome://tracing or Perfetto. Span depth maps to
// the tid so nested spans stack visually.
func (t *Trace) ChromeTraceJSON() ([]byte, error) {
	if t == nil {
		return []byte("[]"), nil
	}
	spans := t.Spans()
	depth := make(map[SpanID]int, len(spans))
	events := make([]chromeEvent, 0, len(spans))
	for i := range spans {
		sp := &spans[i]
		d := 0
		if sp.Parent != 0 {
			d = depth[sp.Parent] + 1
		}
		depth[sp.ID] = d
		end := sp.End
		if end < 0 {
			end = sp.Start // open span: zero-width marker
		}
		ev := chromeEvent{
			Name: sp.Name,
			Cat:  sp.Kind.String(),
			Ph:   "X",
			Ts:   float64(sp.Start) / 1e3,
			Dur:  float64(end-sp.Start) / 1e3,
			Pid:  1,
			Tid:  d + 1,
		}
		if sp.Stats.Total() > 0 {
			ev.Args = map[string]uint64{
				"intersections":      sp.Stats.Total(),
				"uint_uint_merge":    sp.Stats.UintUintMerge,
				"uint_uint_gallop":   sp.Stats.UintUintGallop,
				"bs_uint":            sp.Stats.BsUint,
				"bs_bs":              sp.Stats.BsBs,
				"bytes_materialized": sp.Stats.BytesOut,
			}
		}
		events = append(events, ev)
	}
	return json.Marshal(events)
}
