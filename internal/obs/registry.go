package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// QueryInfo is one registry entry rendered for humans / JSON.
type QueryInfo struct {
	ID      uint64        `json:"id"`
	SQL     string        `json:"sql"`
	Start   time.Time     `json:"start"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Phase   string        `json:"phase"`
	Span    string        `json:"span"`
	Done    bool          `json:"done"`
}

// ActiveQuery is one in-flight query's registry handle.
type ActiveQuery struct {
	id     uint64
	sql    string
	start  time.Time
	cancel context.CancelFunc
	trace  *Trace
	phase  atomic.Pointer[string]
}

// ID is the query's engine-unique ID (also the /debug/trace key).
func (a *ActiveQuery) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.id
}

// SetPhase labels what the query is currently doing. Nil-safe so the
// engine can thread an optional handle without checks.
func (a *ActiveQuery) SetPhase(p string) {
	if a == nil {
		return
	}
	a.phase.Store(&p)
}

func (a *ActiveQuery) currentPhase() string {
	if p := a.phase.Load(); p != nil {
		return *p
	}
	return ""
}

// defaultRecentTraces bounds how many finished traces the registry
// retains for /debug/trace lookups.
const defaultRecentTraces = 64

// Registry tracks every in-flight query so a stuck one can be listed
// and cancelled, and retains a bounded ring of finished traces.
type Registry struct {
	nextID atomic.Uint64

	mu        sync.Mutex
	active    map[uint64]*ActiveQuery
	recent    map[uint64]*Trace
	recentSeq []uint64 // insertion order, oldest first
	recentCap int
}

// NewRegistry creates a registry retaining recentCap finished traces
// (≤0 selects the default).
func NewRegistry(recentCap int) *Registry {
	if recentCap <= 0 {
		recentCap = defaultRecentTraces
	}
	return &Registry{
		active:    map[uint64]*ActiveQuery{},
		recent:    map[uint64]*Trace{},
		recentCap: recentCap,
	}
}

// Register adds an in-flight query. cancel aborts it (may be nil);
// trace may be nil. The returned handle must be passed to Finish.
func (r *Registry) Register(sql string, cancel context.CancelFunc, trace *Trace) *ActiveQuery {
	a := &ActiveQuery{
		id:     r.nextID.Add(1),
		sql:    sql,
		start:  time.Now(),
		cancel: cancel,
		trace:  trace,
	}
	if trace != nil {
		trace.setID(a.id)
	}
	r.mu.Lock()
	r.active[a.id] = a
	r.mu.Unlock()
	return a
}

// Finish removes the query from the live set and retains its trace.
func (r *Registry) Finish(a *ActiveQuery) {
	if a == nil {
		return
	}
	r.mu.Lock()
	delete(r.active, a.id)
	if a.trace != nil {
		if _, dup := r.recent[a.id]; !dup {
			r.recent[a.id] = a.trace
			r.recentSeq = append(r.recentSeq, a.id)
			for len(r.recentSeq) > r.recentCap {
				delete(r.recent, r.recentSeq[0])
				r.recentSeq = r.recentSeq[1:]
			}
		}
	}
	r.mu.Unlock()
}

// List snapshots the in-flight queries, oldest first.
func (r *Registry) List() []QueryInfo {
	now := time.Now()
	r.mu.Lock()
	out := make([]QueryInfo, 0, len(r.active))
	for _, a := range r.active {
		out = append(out, QueryInfo{
			ID:      a.id,
			SQL:     a.sql,
			Start:   a.start,
			Elapsed: now.Sub(a.start),
			Phase:   a.currentPhase(),
			Span:    a.trace.Current(),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumActive reports the number of in-flight queries.
func (r *Registry) NumActive() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// Cancel aborts the in-flight query with the given ID. It reports
// whether the ID was live and had a cancel function.
func (r *Registry) Cancel(id uint64) bool {
	r.mu.Lock()
	a := r.active[id]
	r.mu.Unlock()
	if a == nil || a.cancel == nil {
		return false
	}
	a.cancel()
	return true
}

// Trace finds a query's trace by ID: in-flight first, then the
// retained ring of finished traces. Nil when unknown or evicted.
func (r *Registry) Trace(id uint64) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a, ok := r.active[id]; ok {
		return a.trace
	}
	return r.recent[id]
}

// TraceIDs lists the IDs with a retrievable trace (live + retained),
// ascending.
func (r *Registry) TraceIDs() []uint64 {
	r.mu.Lock()
	ids := make([]uint64, 0, len(r.active)+len(r.recentSeq))
	for id := range r.active {
		ids = append(ids, id)
	}
	ids = append(ids, r.recentSeq...)
	r.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
