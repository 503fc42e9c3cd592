package governor

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/qerr"
)

func TestUnlimitedAcquire(t *testing.T) {
	g := New(Config{})
	rel, err := g.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if got := g.Counters()["gov_admitted"]; got != 1 {
		t.Fatalf("admitted = %d", got)
	}
}

func TestNilGovernorIsFree(t *testing.T) {
	var g *Governor
	rel, err := g.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	var a *Accountant
	if err := a.Charge(1 << 40); err != nil {
		t.Fatal(err)
	}
	a.Close()
}

func TestAdmissionQueueAndShed(t *testing.T) {
	g := New(Config{MaxConcurrency: 1, QueueDepth: 1})
	rel1, err := g.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Second query queues.
	admitted := make(chan struct{})
	go func() {
		rel2, err := g.Acquire(context.Background(), 1)
		if err != nil {
			t.Error(err)
			return
		}
		close(admitted)
		rel2()
	}()
	waitFor(t, func() bool { return g.QueueLen() == 1 })

	// Third query is shed: queue full.
	_, err = g.Acquire(context.Background(), 1)
	var oe *qerr.OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("expected OverloadedError, got %v", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v", oe.RetryAfter)
	}

	rel1()
	<-admitted
	waitFor(t, func() bool { return g.InUse() == 0 && g.QueueLen() == 0 })
	c := g.Counters()
	if c["gov_admitted"] != 2 || c["gov_shed"] != 1 || c["gov_queued"] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

func TestQueuedCancellation(t *testing.T) {
	g := New(Config{MaxConcurrency: 1, QueueDepth: 4})
	rel, err := g.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx, 1)
		errc <- err
	}()
	waitFor(t, func() bool { return g.QueueLen() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel = %v", err)
	}
	if g.QueueLen() != 0 {
		t.Fatalf("queue len = %d after cancel", g.QueueLen())
	}
}

func TestShutdownShedsQueuedAndNew(t *testing.T) {
	g := New(Config{MaxConcurrency: 1, QueueDepth: 4})
	rel, err := g.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := g.Acquire(context.Background(), 1)
		errc <- err
	}()
	waitFor(t, func() bool { return g.QueueLen() == 1 })
	g.BeginShutdown()
	var oe *qerr.OverloadedError
	if err := <-errc; !errors.As(err, &oe) || oe.Reason != "shutting down" {
		t.Fatalf("queued waiter after shutdown: %v", err)
	}
	if _, err := g.Acquire(context.Background(), 1); !errors.As(err, &oe) {
		t.Fatalf("new acquire after shutdown: %v", err)
	}
	rel()
	if g.InUse() != 0 {
		t.Fatalf("in use = %d", g.InUse())
	}
}

func TestMemoryBudget(t *testing.T) {
	g := New(Config{MemoryBudget: 1000})
	a := g.NewAccountant("SELECT 1", 0)
	if a == nil {
		t.Fatal("nil accountant with a budget configured")
	}
	if err := a.Charge(800); err != nil {
		t.Fatal(err)
	}
	err := a.Charge(800)
	var re *qerr.ResourceExhaustedError
	if !errors.As(err, &re) || re.Engine {
		t.Fatalf("expected per-query ResourceExhausted, got %v", err)
	}
	if re.Used != 1600 || re.Limit != 1000 {
		t.Fatalf("Used=%d Limit=%d", re.Used, re.Limit)
	}
	if g.Charged() != 1600 {
		t.Fatalf("engine charged = %d", g.Charged())
	}
	a.Close()
	a.Close() // idempotent
	if g.Charged() != 0 {
		t.Fatalf("engine charged after close = %d", g.Charged())
	}
}

// TestFits: Fits answers against the query budget and the engine soft
// limit without charging either.
func TestFits(t *testing.T) {
	var nilAcc *Accountant
	if !nilAcc.Fits(1 << 62) {
		t.Fatal("nil accountant refused")
	}
	g := New(Config{MemoryBudget: 1000, SoftLimit: 1 << 50})
	a := g.NewAccountant("q", 0)
	if err := a.Charge(600); err != nil {
		t.Fatal(err)
	}
	if !a.Fits(400) || a.Fits(401) {
		t.Fatal("Fits disagrees with the query budget")
	}
	b := g.NewAccountant("q2", 1<<60)
	if b.Fits(1<<50) || !b.Fits(1<<40) {
		t.Fatal("Fits disagrees with the engine soft limit")
	}
	if a.Used() != 600 || b.Used() != 0 || g.Charged() != 600 {
		t.Fatalf("Fits charged: used %d and %d, engine %d", a.Used(), b.Used(), g.Charged())
	}
}

func TestEngineSoftLimit(t *testing.T) {
	g := New(Config{SoftLimit: 1 << 50}) // heap check can't trip in tests
	a := g.NewAccountant("q1", 0)
	b := g.NewAccountant("q2", 0)
	if err := a.Charge(1 << 49); err != nil {
		t.Fatal(err)
	}
	err := b.Charge(1 + 1<<49)
	var re *qerr.ResourceExhaustedError
	if !errors.As(err, &re) || !re.Engine {
		t.Fatalf("expected engine-wide ResourceExhausted, got %v", err)
	}
	a.Close()
	b.Close()
	if g.Charged() != 0 {
		t.Fatalf("charged = %d", g.Charged())
	}
}

func TestPerQueryBudgetOverride(t *testing.T) {
	g := New(Config{MemoryBudget: 1 << 30})
	a := g.NewAccountant("q", 10)
	if err := a.Charge(11); err == nil {
		t.Fatal("override budget not enforced")
	}
	a.Close()
}

func TestChargeFaultInjection(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.PointGovernorCharge, faultinject.Fault{Mode: faultinject.ModeError, Times: 1})
	g := New(Config{MemoryBudget: 1 << 40})
	a := g.NewAccountant("q", 0)
	var re *qerr.ResourceExhaustedError
	if err := a.Charge(1); !errors.As(err, &re) {
		t.Fatalf("injected charge failure = %v", err)
	}
	if err := a.Charge(1); err != nil {
		t.Fatalf("after budget spent: %v", err)
	}
	a.Close()
}

func TestConcurrentAcquireRace(t *testing.T) {
	g := New(Config{MaxConcurrency: 4, QueueDepth: 8})
	var wg sync.WaitGroup
	var admitted, shedOrTimeout sync.Map
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			rel, err := g.Acquire(ctx, 1)
			if err != nil {
				shedOrTimeout.Store(i, err)
				return
			}
			admitted.Store(i, true)
			time.Sleep(time.Millisecond)
			rel()
		}(i)
	}
	wg.Wait()
	waitFor(t, func() bool { return g.InUse() == 0 && g.QueueLen() == 0 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
