package obs

import (
	"context"
	"fmt"
	"testing"
)

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := NewTrace("SELECT 1")
	a := r.Register("SELECT 1", cancel, tr)
	if a.ID() == 0 || tr.ID() != a.ID() {
		t.Fatalf("ids: handle=%d trace=%d", a.ID(), tr.ID())
	}
	a.SetPhase("execute")

	list := r.List()
	if len(list) != 1 || list[0].SQL != "SELECT 1" || list[0].Phase != "execute" {
		t.Fatalf("list = %+v", list)
	}
	if list[0].Span != "query" {
		t.Fatalf("span = %q", list[0].Span)
	}

	if !r.Cancel(a.ID()) {
		t.Fatal("cancel failed")
	}
	if ctx.Err() == nil {
		t.Fatal("cancel did not fire the context")
	}
	if r.Cancel(999) {
		t.Fatal("cancelled a nonexistent query")
	}

	r.Finish(a)
	if r.NumActive() != 0 {
		t.Fatalf("active = %d", r.NumActive())
	}
	// The finished trace stays retrievable.
	if got := r.Trace(a.ID()); got != tr {
		t.Fatal("finished trace not retained")
	}
}

func TestRegistryRecentEviction(t *testing.T) {
	r := NewRegistry(2)
	var ids []uint64
	for i := 0; i < 3; i++ {
		tr := NewTrace(fmt.Sprintf("q%d", i))
		a := r.Register(tr.SQL(), nil, tr)
		ids = append(ids, a.ID())
		r.Finish(a)
	}
	if r.Trace(ids[0]) != nil {
		t.Fatal("oldest trace should be evicted")
	}
	if r.Trace(ids[1]) == nil || r.Trace(ids[2]) == nil {
		t.Fatal("recent traces missing")
	}
	got := r.TraceIDs()
	if len(got) != 2 || got[0] != ids[1] || got[1] != ids[2] {
		t.Fatalf("trace ids = %v", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(8)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 200; i++ {
			r.List()
			r.TraceIDs()
		}
		close(done)
	}()
	for i := 0; i < 200; i++ {
		a := r.Register("q", nil, NewTrace("q"))
		r.Finish(a)
	}
	<-done
	if r.NumActive() != 0 {
		t.Fatalf("active = %d", r.NumActive())
	}
}
