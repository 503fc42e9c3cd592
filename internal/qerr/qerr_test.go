package qerr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func panicWith(v any) { panic(v) }

// runWorker runs f on its own goroutine behind c's barrier and waits.
func runWorker(c *PanicCell, f func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c.Recover()
		f()
	}()
	wg.Wait()
}

func TestPanicCellKeepsFirstPanic(t *testing.T) {
	var c PanicCell
	c.Repanic() // nothing captured: no-op

	runWorker(&c, func() {})
	runWorker(&c, func() { panicWith("first") })
	runWorker(&c, func() { panicWith("second") })

	var got any
	func() {
		defer func() { got = recover() }()
		c.Repanic()
	}()
	ie, ok := got.(*InternalError)
	if !ok {
		t.Fatalf("Repanic raised %T %v, want *InternalError", got, got)
	}
	if ie.Panic != "first" {
		t.Fatalf("Panic = %v, want the first panic", ie.Panic)
	}
	// The stack is the worker's, taken at the panic site.
	if !strings.Contains(string(ie.Stack), "qerr.panicWith") {
		t.Fatalf("stack lacks the panic site:\n%s", ie.Stack)
	}

	// A barrier that recovers the re-raised value passes it through, so
	// the original stack survives the hop across the join.
	if again := CapturePanic(got); again != ie {
		t.Fatalf("CapturePanic re-wrapped an InternalError: %p != %p", again, ie)
	}
}

func TestCapturePanicWrapsNonErrors(t *testing.T) {
	for _, v := range []any{42, "boom", struct{ X int }{7}} {
		ie := CapturePanic(v)
		if ie.Panic != v {
			t.Errorf("Panic = %v, want %v", ie.Panic, v)
		}
		if len(ie.Stack) == 0 {
			t.Errorf("%v: no stack captured", v)
		}
		if want := fmt.Sprintf("panic: %v", v); !strings.Contains(ie.Error(), want) {
			t.Errorf("Error() = %q, want it to contain %q", ie.Error(), want)
		}
	}
}

func TestPhaseErrorsUnwrapToCause(t *testing.T) {
	cause := fmt.Errorf("worker stopped: %w", context.Canceled)
	for _, err := range []error{
		&ParseError{SQL: "SELECT", Err: cause},
		&PlanError{SQL: "SELECT", Err: cause},
		&ExecError{SQL: "SELECT", Err: cause},
	} {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%T: errors.Is(err, context.Canceled) = false", err)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%T: matched an unrelated cause", err)
		}
	}
	var ee *ExecError
	if !errors.As(fmt.Errorf("query: %w", &ExecError{Err: cause}), &ee) {
		t.Fatal("errors.As does not find a wrapped *ExecError")
	}
}

func TestFragmentTruncatesLongSQL(t *testing.T) {
	short := strings.Repeat("a", 60)
	if got := fragment(short); got != short {
		t.Fatalf("60-byte SQL altered: %q", got)
	}
	long := short + "b"
	if got := fragment(long); got != short+"…" {
		t.Fatalf("fragment(61 bytes) = %q, want the first 60 bytes and an ellipsis", got)
	}
	msg := (&PlanError{SQL: long, Err: errors.New("x")}).Error()
	if strings.Contains(msg, long) || !strings.Contains(msg, short+"…") {
		t.Fatalf("error message does not carry the truncated SQL: %q", msg)
	}
}
