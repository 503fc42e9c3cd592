package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/qerr"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// chaosPoints are the injection sites the acceptance criteria name: a
// forced panic in each of exec, trie, and set must fail only the query
// that hit it while concurrent queries complete.
var chaosPoints = []string{
	faultinject.PointExecWorker,
	faultinject.PointTrieBuild,
	faultinject.PointSetIntersect,
	faultinject.PointExecOutput,
}

func TestChaosPanicFailsOnlyInjectedQuery(t *testing.T) {
	for _, point := range chaosPoints {
		t.Run(point, func(t *testing.T) {
			faultinject.Reset()
			t.Cleanup(faultinject.Reset)
			eng := tpchEngine(t, WithTrieCache(false))
			// Warm the plan cache so the injected run exercises only
			// execution-side code.
			if _, err := eng.Query(tpch.Queries["q5"]); err != nil {
				t.Fatal(err)
			}
			faultinject.Arm(point, faultinject.Fault{Mode: faultinject.ModePanic, Times: 1})

			const n = 8
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = eng.Query(tpch.Queries["q5"])
				}(i)
			}
			wg.Wait()

			var failed int
			for _, err := range errs {
				if err == nil {
					continue
				}
				failed++
				var ie *qerr.InternalError
				if !errors.As(err, &ie) {
					t.Fatalf("injected failure is %T (%v), want InternalError", err, err)
				}
				if len(ie.Stack) == 0 {
					t.Fatal("InternalError carries no stack")
				}
			}
			if failed != 1 {
				t.Fatalf("%d queries failed, want exactly the injected one", failed)
			}
			// The engine keeps serving after the contained panic.
			if _, err := eng.Query(tpch.Queries["q1"]); err != nil {
				t.Fatalf("query after contained panic: %v", err)
			}
			if got := eng.gov.Counters()["gov_panics_recovered"]; got != 1 {
				t.Fatalf("gov_panics_recovered = %d", got)
			}
		})
	}
}

func TestChaosInjectedDelayStillCompletes(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng := tpchEngine(t)
	faultinject.Arm(faultinject.PointSetIntersect,
		faultinject.Fault{Mode: faultinject.ModeDelay, Delay: time.Millisecond, Times: 8})
	if _, err := eng.Query(tpch.Queries["q5"]); err != nil {
		t.Fatal(err)
	}
}

func TestChaosMemoryBudgetAbort(t *testing.T) {
	eng := tpchEngine(t, WithMemoryBudget(1), WithTrieCache(false))
	_, err := eng.Query(tpch.Queries["q5"])
	var re *qerr.ResourceExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("over-budget query returned %v, want ResourceExhaustedError", err)
	}
	if re.Engine {
		t.Fatal("per-query budget flagged as engine-wide")
	}
	if got := eng.gov.Charged(); got != 0 {
		t.Fatalf("charged bytes after abort = %d", got)
	}
	if got := eng.gov.Counters()["gov_mem_aborted"]; got == 0 {
		t.Fatal("gov_mem_aborted not incremented")
	}
	// A roomy per-query override on the same engine succeeds.
	if _, err := eng.QueryWithContext(context.Background(), tpch.Queries["q5"], QueryOptions{MemoryBudget: 1 << 40}); err != nil {
		t.Fatalf("override budget query: %v", err)
	}
}

func TestChaosEngineSoftLimitAbort(t *testing.T) {
	eng := tpchEngine(t, WithMemorySoftLimit(1), WithTrieCache(false))
	_, err := eng.Query(tpch.Queries["q5"])
	var re *qerr.ResourceExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("soft-limit query returned %v, want ResourceExhaustedError", err)
	}
	if !re.Engine {
		t.Fatal("soft-limit abort not flagged engine-wide")
	}
}

func TestOverloadShedWithRetryAfter(t *testing.T) {
	eng := tpchEngine(t, WithMaxConcurrency(1), WithQueueDepth(0))
	// Hold the only slot with a slow injected query.
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.PointExecWorker,
		faultinject.Fault{Mode: faultinject.ModeDelay, Delay: 300 * time.Millisecond, Times: 1})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := eng.Query(tpch.Queries["q5"])
		done <- err
	}()
	<-started
	waitForCond(t, func() bool { return eng.gov.InUse() == 1 })

	_, err := eng.Query(tpch.Queries["q1"])
	var oe *qerr.OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("overload returned %v, want OverloadedError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v", oe.RetryAfter)
	}
	if err := <-done; err != nil {
		t.Fatalf("held query failed: %v", err)
	}
	c := eng.gov.Counters()
	if c["gov_shed"] == 0 {
		t.Fatal("gov_shed not incremented")
	}
	// The shed query is observed like every other failure: whole-query
	// latency counts each query and each error exactly once.
	m := eng.Metrics().SnapshotCounters()
	if n := eng.Telemetry().PhaseSnapshot("total").Count; n != uint64(m["queries"]+m["errors"]) {
		t.Fatalf("total-latency observations = %d, want queries+errors = %d", n, m["queries"]+m["errors"])
	}
}

// TestGovernorStress runs admitted, queued, shed, over-budget,
// panicking, and cancelled queries simultaneously (run under -race via
// `make chaos`), then asserts every accounting surface returns to zero.
func TestGovernorStress(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng := tpchEngine(t, WithMaxConcurrency(3), WithQueueDepth(4))
	// Warm plans and tries so the stress loop measures steady state.
	if _, err := eng.Query(tpch.Queries["q5"]); err != nil {
		t.Fatal(err)
	}

	var ok, shed, exhausted, panicked, cancelled, other int
	var mu sync.Mutex
	tally := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			ok++
		case errors.As(err, new(*qerr.OverloadedError)):
			shed++
		case errors.As(err, new(*qerr.ResourceExhaustedError)):
			exhausted++
		case errors.As(err, new(*qerr.InternalError)):
			panicked++
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			cancelled++
		default:
			other++
		}
	}
	// One admitted and one over-budget query before the storm, so the mix
	// always holds both classes whatever the storm's admission timing (on
	// a small box every storm query can be shed).
	for _, qo := range []QueryOptions{{}, {MemoryBudget: 1}} {
		_, err := eng.QueryWithContext(context.Background(), tpch.Queries["q5"], qo)
		tally(err)
	}

	faultinject.Arm(faultinject.PointExecWorker,
		faultinject.Fault{Mode: faultinject.ModePanic, Times: 5})

	const n = 48
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			qo := QueryOptions{}
			switch i % 4 {
			case 1: // over-budget
				qo.MemoryBudget = 1
			case 2: // short deadline: queued queries may time out
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 30*time.Millisecond)
				defer cancel()
			}
			_, err := eng.QueryWithContext(ctx, tpch.Queries["q5"], qo)
			tally(err)
		}(i)
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("unexpected error class: ok=%d shed=%d exhausted=%d panicked=%d cancelled=%d other=%d",
			ok, shed, exhausted, panicked, cancelled, other)
	}
	if ok == 0 || exhausted == 0 {
		t.Fatalf("stress mix too narrow: ok=%d shed=%d exhausted=%d panicked=%d cancelled=%d",
			ok, shed, exhausted, panicked, cancelled)
	}
	// Every accounting surface drains to zero.
	waitForCond(t, func() bool { return eng.Telemetry().Registry.NumActive() == 0 })
	if got := eng.gov.InUse(); got != 0 {
		t.Fatalf("governor in-use weight = %d", got)
	}
	if got := eng.gov.QueueLen(); got != 0 {
		t.Fatalf("governor queue len = %d", got)
	}
	if got := eng.gov.Charged(); got != 0 {
		t.Fatalf("charged bytes = %d", got)
	}
	// The engine still answers correctly after the storm.
	if _, err := eng.Query(tpch.Queries["q1"]); err != nil {
		t.Fatalf("query after stress: %v", err)
	}
}

func TestEngineShutdownAndDrain(t *testing.T) {
	eng := tpchEngine(t, WithMaxConcurrency(2), WithQueueDepth(2))
	if _, err := eng.Query(tpch.Queries["q5"]); err != nil {
		t.Fatal(err)
	}
	eng.BeginShutdown()
	_, err := eng.Query(tpch.Queries["q1"])
	var oe *qerr.OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("post-shutdown query returned %v, want OverloadedError", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if n := eng.Drain(ctx); n != 0 {
		t.Fatalf("drain cancelled %d queries on an idle engine", n)
	}
}

// TestSkewedChunkCancellation is the regression test for in-recursion
// cancellation: a self-join whose outermost loop has a single value
// gives parfor exactly one chunk, so the chunk-boundary check alone
// would only observe cancellation after the whole (quadratic) subtree.
// The sampled per-node check must stop it promptly.
func TestSkewedChunkCancellation(t *testing.T) {
	eng := New(WithThreads(1))
	tab, err := eng.CreateTable(storage.Schema{Name: "skew", Cols: []storage.ColumnDef{
		{Name: "a", Kind: storage.Int64, Role: storage.Key, Domain: "da"},
		{Name: "b", Kind: storage.Int64, Role: storage.Key, Domain: "db"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// One outermost value (a=0) fanning out to nB children; grouping by
	// both b attributes keeps them in the root bag, so the b1×b2
	// self-join subtree under a=0 has nB² output tuples — all in one
	// parfor chunk.
	const nB = 8000
	for b := 0; b < nB; b++ {
		if err := tab.Append(int64(0), int64(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT s1.b AS b1, s2.b AS b2, count(*) AS c
		FROM skew AS s1, skew AS s2 WHERE s1.a = s2.a GROUP BY s1.b, s2.b`
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = eng.QueryWithContext(ctx, q, QueryOptions{})
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("skewed query returned %v, want deadline exceeded", err)
	}
	// Generous CI bound: the sampled check fires every 2048 visited
	// nodes, so cancellation should land within microseconds of work;
	// without it this query runs the full 9·10⁸-tuple subtree.
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, in-loop check not effective", elapsed)
	}
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosConcurrentIngest hammers one engine with concurrent
// Append/AppendBatch writers, readers, and compactions for a few
// hundred milliseconds under -race, then verifies not a single row was
// lost: a final compact + count(*) must equal exactly the number of
// successfully committed appends.
func TestChaosConcurrentIngest(t *testing.T) {
	eng := New()
	tab, err := eng.CreateTable(storage.Schema{
		Name: "events",
		Cols: []storage.ColumnDef{
			{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "d"},
			{Name: "j", Kind: storage.Int64, Role: storage.Key, Domain: "d"},
			{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed rows so the first query has something to freeze.
	for i := int64(0); i < 32; i++ {
		if err := tab.Append(i, (i*7)%32, float64(i)); err != nil {
			t.Fatal(err)
		}
	}

	const (
		writers  = 4
		readers  = 2
		duration = 300 * time.Millisecond
	)
	var (
		committed atomic.Int64
		wg        sync.WaitGroup
		stop      = make(chan struct{})
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := int64(1000 * (w + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if w%2 == 0 {
					if err := tab.Append(k, k%97, 1.0); err != nil {
						t.Error(err)
						return
					}
					committed.Add(1)
				} else {
					batch := [][]interface{}{
						{k, k % 89, 0.5},
						{k + 1, (k + 1) % 89, 0.5},
					}
					if _, err := eng.IngestRows(context.Background(), "events", batch); err != nil {
						t.Error(err)
						return
					}
					committed.Add(2)
					k++
				}
				k++
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := eng.Query("SELECT count(*) AS n FROM events")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Col("n").F64[0] < 32 {
					t.Errorf("count shrank below the seeded 32: %v", res.Col("n").F64[0])
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.Compact(context.Background()); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	if err := eng.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT count(*) AS n FROM events")
	if err != nil {
		t.Fatal(err)
	}
	want := float64(32 + committed.Load())
	if got := res.Col("n").F64[0]; got != want {
		t.Fatalf("final count = %v, want %v (%d committed appends)", got, want, committed.Load())
	}
	if d := tab.DeltaRows(); d != 0 {
		t.Fatalf("delta rows after final compact = %d", d)
	}
	st := eng.TablesStatus()
	if len(st) != 1 || st[0].Rows != int(want) {
		t.Fatalf("TablesStatus = %+v, want %v rows", st, want)
	}
}
