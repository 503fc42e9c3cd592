package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/costopt"
	"repro/internal/exec"
)

// sizes are the scale knobs of the four workloads. fullSizes is what
// the command runs; toySizes keeps the package's own tests under ten
// seconds.
type sizes struct {
	sfJoin, sfScan, sfIngest float64
	smm                      []sparseCase
	smv                      sparseCase
	dmv                      int
	dmm                      []int
	setups                   int // set-ups per run; setup_s is their median
	warmRounds               int // untimed rounds at the end of every set-up
	verifyRounds             int // untimed rounds checked against the forced-WCOJ plan
	batchRows                int // ingest_mixed: rows per IngestBatch
	compactEvery             int // ingest_mixed: Compact after this many batches
	checkEvery               int // ingest_mixed: count/sum check after this many batches
	kernelN                  int // elements per operand of the direct set-kernel timings
}

type sparseCase struct {
	profile string
	scale   float64
}

var fullSizes = sizes{
	sfJoin: 0.1, sfScan: 0.2, sfIngest: 0.1,
	smm: []sparseCase{{"harbor", 0.1}, {"nlp240", 0.1}},
	smv: sparseCase{"hv15r", 1.0},
	dmv: 1024, dmm: []int{256, 384},
	setups: 3, warmRounds: 2, verifyRounds: 2,
	batchRows: 100, compactEvery: 100, checkEvery: 20,
	kernelN: 4096,
}

var toySizes = sizes{
	sfJoin: 0.01, sfScan: 0.01, sfIngest: 0.01,
	smm: []sparseCase{{"harbor", 0.05}, {"nlp240", 0.05}},
	smv: sparseCase{"hv15r", 0.05},
	dmv: 64, dmm: []int{32, 48},
	setups: 1, warmRounds: 1, verifyRounds: 1,
	batchRows: 200, compactEvery: 2, checkEvery: 1,
	kernelN: 512,
}

type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed section
	rounds   int     // > 0: run exactly this many timed rounds instead
	trace    bool
	threads  int
	size     sizes
	tmpRoot  string // durable engines' directories are created (and removed) here
}

// setupParts is the part of set-up time a workload attributes to the
// storage layer.
type setupParts struct{ populateS, freezeS float64 }

// instance is one populated, frozen set-up of a workload.
type instance interface {
	engines() []*core.Engine
	// round issues one round of the statement stream through x, drawing
	// every literal and row from r.
	round(r *rand.Rand, x *executor)
	// verify runs the untimed reference checks of the set-up.
	verify(x *executor)
	// finish runs after the timed section (ingest_mixed restarts here).
	finish(x *executor)
	// layers times direct calls into the layers the query pipeline hides
	// (traced run only).
	layers(x *executor)
	// close shuts the instance's engines down and removes its
	// directories; it is idempotent.
	close()
}

// tally counts checked operations across every phase of a run.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) fail(format string, a ...interface{}) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, a...))
	}
}

// series is a list of samples, each tagged with the timed round it was
// taken in, so that rounds measured while the machine was disturbed can
// be left out of every statistic at once.
type series struct {
	v     []float64
	round []int
}

func (s *series) add(round int, v float64) {
	s.v = append(s.v, v)
	s.round = append(s.round, round)
}

// opKind says which end-to-end metrics an operation type counts toward.
type opKind int

const (
	opQuery opKind = iota // an SQL statement: latency_ms_* and ops_per_s
	opWrite               // a write the client waits for (ingest batch): ops_per_s only
	opMaint               // maintenance (compaction): per-layer metrics only
)

type opStats struct {
	name   string
	kind   opKind
	ms     series // one latency sample per execution
	forced int    // executions already compared with the forced-WCOJ plan
}

// executor runs the operations a workload issues and records what the
// metrics need. With tr == nil an SQL operation is one timed
// Engine.QueryWithContext; with a tracer every statement additionally
// runs stepped through the layers (see trace.go).
type executor struct {
	cfg         config
	tally       *tally
	ops         []*opStats
	checkForced bool // compare each statement's first executions with ForcePath=wcoj
	tr          *tracer
	round       int                           // the timed round being issued
	quiet       []bool                        // after the timed section: which rounds count (nil: all)
	lay         map[string]float64            // per-layer metrics set directly
	samples     map[string]map[string]*series // per-layer samples by metric, then operation
	count       map[string]float64            // per-layer counters summed over stepped operations
}

func newExecutor(cfg config, t *tally) *executor {
	return &executor{cfg: cfg, tally: t, lay: map[string]float64{}, samples: map[string]map[string]*series{}, count: map[string]float64{}}
}

func (x *executor) op(name string, kind opKind) *opStats {
	for _, o := range x.ops {
		if o.name == name {
			return o
		}
	}
	o := &opStats{name: name, kind: kind}
	x.ops = append(x.ops, o)
	return o
}

func (x *executor) sample(name, op string, v float64) {
	if x.samples[name] == nil {
		x.samples[name] = map[string]*series{}
	}
	if x.samples[name][op] == nil {
		x.samples[name][op] = &series{}
	}
	x.samples[name][op].add(x.round, v)
}

// vals are the samples of s taken in rounds that count.
func (x *executor) vals(s *series) []float64 {
	if x.quiet == nil {
		return s.v
	}
	var out []float64
	for i, v := range s.v {
		if x.quiet[s.round[i]] {
			out = append(out, v)
		}
	}
	return out
}

// quietSamples is the number of executions the rarest statement has in
// the rounds quiet marks (rounds issued so far that quiet does not cover
// yet count as not quiet).
func (x *executor) quietSamples(quiet []bool) int {
	least := -1
	for _, o := range x.ops {
		if o.kind != opQuery {
			continue
		}
		n := 0
		for _, r := range o.ms.round {
			if r < len(quiet) && quiet[r] {
				n++
			}
		}
		if least < 0 || n < least {
			least = n
		}
	}
	return max(least, 0)
}

// perOp reduces a sampled metric the way latency_ms_p50 reduces
// latency, but additively: each operation's q-quantile, then the mean
// over operations (layers that are 0 on some statements rule out a
// geomean).
func (x *executor) perOp(name string, q float64) float64 {
	sum := 0.0
	for _, vs := range x.samples[name] {
		sum += quantile(x.vals(vs), q)
	}
	return ratio(sum, float64(len(x.samples[name])))
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// query runs one SQL statement as operation op and returns its result
// (nil after a failure, which is tallied).
// With forced set, the statement's first executions under a checking
// executor are compared with the ForcePath=wcoj plan, bit for bit.
func (x *executor) query(op string, eng *core.Engine, sql string, forced bool) *exec.Result {
	o := x.op(op, opQuery)
	x.tally.attempted++
	ctx := context.Background()
	steppedFirst := x.tr != nil && len(o.ms.v)%2 == 0
	var stepped time.Duration
	if steppedFirst {
		stepped = x.stepped(op, eng, sql)
	}
	t0 := time.Now()
	res, err := eng.QueryWithContext(ctx, sql, core.QueryOptions{})
	d := time.Since(t0)
	if err != nil {
		x.tally.fail("%s: %v", op, err)
		return nil
	}
	o.ms.add(x.round, msOf(d))
	if x.tr != nil {
		if !steppedFirst {
			stepped = x.stepped(op, eng, sql)
		}
		if res.Stats.PlanCached {
			stepped -= x.tr.frontEnd // the engine skipped parse and plan
		}
		x.sample("core.overhead_us", op, float64(d-stepped)/1e3)
	}
	if forced && x.checkForced && o.forced < x.cfg.size.verifyRounds {
		o.forced++
		x.tally.attempted++
		want, err := eng.QueryWithContext(ctx, sql, core.QueryOptions{ForcePath: costopt.PathWCOJ})
		if err != nil {
			x.tally.fail("%s forced wcoj: %v", op, err)
		} else if msg := sameResult(res, want); msg != "" {
			x.tally.fail("%s: default plan differs from forced wcoj: %s", op, msg)
		}
	}
	return res
}

// do runs a non-SQL operation (ingest batch, compaction).
func (x *executor) do(op string, kind opKind, f func() error) {
	o := x.op(op, kind)
	x.tally.attempted++
	id := 0
	if x.tr != nil {
		id = x.tr.begin(op, "core", 0)
	}
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	if x.tr != nil {
		x.tr.end(id)
	}
	if err != nil {
		x.tally.fail("%s: %v", op, err)
		return
	}
	o.ms.add(x.round, msOf(d))
}

// check tallies one untimed verification.
func (x *executor) check(what string, err error) {
	x.tally.attempted++
	if err != nil {
		x.tally.fail("%s: %v", what, err)
	}
}

// checkErr tallies a harness-side call only when it failed.
func (x *executor) checkErr(what string, err error) {
	if err != nil {
		x.check(what, err)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints; its JSON form is the contract's last
// line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	errs  []string
	notes []string
	spans []span
}

func shutdown(eng *core.Engine) {
	eng.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	eng.Drain(ctx)
}

func stream(seed int64, k int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + k))
}

// run performs one benchmark run: set-up (several times, keeping the
// last), verification, the timed section, and the metric reduction.
func run(cfg config) (*report, error) {
	def := findWorkload(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	prevProcs := runtime.GOMAXPROCS(cfg.threads)
	defer runtime.GOMAXPROCS(prevProcs)
	goroutines := runtime.NumGoroutine()
	tl := &tally{}
	rep := &report{Metrics: map[string]metric{}}

	// Set-up: generate + load + freeze + warm-up rounds, several times;
	// the last instance is measured and the median time reported.
	var inst instance
	var setupS, populateS, freezeS []float64
	for k := 0; k < cfg.size.setups; k++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		t0 := time.Now()
		in, parts, err := def.new(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		inst = in
		warm := newExecutor(cfg, tl)
		wr := stream(cfg.seed, 1)
		for i := 0; i < cfg.size.warmRounds; i++ {
			inst.round(wr, warm)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		populateS = append(populateS, parts.populateS)
		freezeS = append(freezeS, parts.freezeS)
	}
	defer func() { inst.close() }()
	rep.notes = append(rep.notes, fmt.Sprintf("set-ups took %.3f s", setupS))

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeap := float64(ms.HeapInuse) / (1 << 20)

	ver := newExecutor(cfg, tl)
	ver.checkForced = true
	inst.verify(ver)
	vr := stream(cfg.seed, 2)
	for i := 0; i < cfg.size.verifyRounds; i++ {
		inst.round(vr, ver)
	}

	x := newExecutor(cfg, tl)
	if cfg.trace {
		x.tr = newTracer()
		x.lay["storage.populate_s"] = median(populateS)
		x.lay["storage.freeze_s"] = median(freezeS)
		for k, v := range ver.lay {
			x.lay[k] = v // reference-kernel times taken while verifying
		}
		inst.layers(x)
	}
	before := engineCounters(inst.engines())
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	tr := stream(cfg.seed, 3)
	probe := newSpeedProbe(cfg.threads)
	probes := []float64{msOf(probe.once())} // probes[i], probes[i+1] bracket round i
	var st probeState
	if cfg.rounds == 0 {
		st = loadProbeState(cfg)
	}
	limit := cfg.seconds + math.Max(0, math.Min(maxStretch*cfg.seconds, maxExtraSeconds-st.ExtraS))
	start := time.Now()
	for i := 0; ; i++ {
		if elapsed := time.Since(start).Seconds(); cfg.rounds > 0 {
			if i >= cfg.rounds {
				break
			}
		} else if i > 0 && elapsed >= cfg.seconds && (elapsed >= limit || x.quietSamples(quietRounds(probes, st.BestMs)) >= minQuietSamples) {
			break
		}
		x.round = i
		inst.round(tr, x)
		probes = append(probes, msOf(probe.once()))
	}
	timedS := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	allocMB := float64(ms.TotalAlloc-alloc0) / (1 << 20)
	after := engineCounters(inst.engines())
	nRounds := len(probes) - 1
	quiet := quietRounds(probes, st.BestMs)
	rep.notes = append(rep.notes, fmt.Sprintf("timed section took %.1f s; speed probe at full speed %.3f ms in this run, %.3f ms in the checkout's earlier runs", timedS, fullSpeed(probes), st.BestMs))
	if cfg.rounds == 0 {
		st.ExtraS += math.Max(0, timedS-cfg.seconds)
		if own := fullSpeed(probes); st.BestMs == 0 || own < st.BestMs {
			st.BestMs = own
		}
		if err := st.save(cfg); err != nil {
			return nil, err
		}
	}
	if n := x.quietSamples(quiet); n < minQuietSamples/4 {
		rep.notes = append(rep.notes, fmt.Sprintf("only %d of %d rounds were quiet (%d executions of the rarest statement): reporting over all rounds", countTrue(quiet), nRounds, n))
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("%d of %d rounds were quiet (speed probe within %.0f%% of its best) and are reported", countTrue(quiet), nRounds, 100*(probeSlack-1)))
		x.quiet = quiet
	}
	inst.finish(x)

	// Reduce.
	// ops_per_s prices every operation the client issued in the timed
	// section at its type's median latency over the quiet rounds, so that
	// the figure does not depend on which rounds happened to be quiet (one
	// q1 is worth two hundred ingest batches) nor on the few disturbed
	// executions the gate lets through (with a neighbour taking the cores
	// in bursts, eight mean-priced runs spread 8.6 %, latency_ms_p50 4.6 %).
	// Compaction is left to the per-layer metrics: most of it is one
	// snapshot write, whose time follows the host's disk (0.1-0.45 s for
	// the same 92 MB).
	var p50s, p90s []float64
	nOps, busyMs := 0, 0.0
	for _, o := range x.ops {
		ms := x.vals(&o.ms)
		if len(ms) == 0 {
			ms = o.ms.v
		}
		if o.kind != opMaint {
			nOps += len(o.ms.v)
			busyMs += float64(len(o.ms.v)) * median(ms)
		}
		if o.kind == opQuery {
			p50s = append(p50s, median(ms))
			p90s = append(p90s, quantile(ms, 0.9))
		}
		rep.notes = append(rep.notes, fmt.Sprintf("op %-14s n=%-4d reported=%-4d p50=%9.3fms p90=%9.3fms (all rounds: p50=%9.3fms)",
			o.name, len(o.ms.v), len(ms), median(ms), quantile(ms, 0.9), median(o.ms.v)))
	}
	if cfg.trace {
		x.reduceLayers(before, after)
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{x.lay[m.name], m.unit}
		}
		rep.spans = x.tr.spans
	} else {
		e2e := map[string]float64{
			"setup_s":         median(setupS),
			"latency_ms_p50":  geomean(p50s),
			"latency_ms_p90":  geomean(p90s),
			"ops_per_s":       ratio(float64(nOps), busyMs/1e3),
			"alloc_mb_per_op": ratio(allocMB, float64(nOps)),
			"live_heap_mb":    liveHeap,
		}
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	}

	// Process hygiene: everything this run started must be gone.
	inst.close()
	for wait := 0; runtime.NumGoroutine() > goroutines && wait < 200; wait++ {
		time.Sleep(10 * time.Millisecond)
	}
	tl.attempted++
	if n := runtime.NumGoroutine(); n > goroutines {
		tl.fail("goroutine leak: %d running, %d at start", n, goroutines)
	}
	rep.Attempted, rep.Failed, rep.errs = tl.attempted, tl.failed, tl.errs
	rep.Correct = tl.failed == 0
	return rep, nil
}

// baseInst supplies the hooks a workload does not need.
type baseInst struct{}

func (baseInst) verify(*executor) {}
func (baseInst) finish(*executor) {}
func (baseInst) layers(*executor) {}

// temps are the directories mkTemp handed out and rmTemp has not yet
// removed; the watchdog's exit path removes them.
var (
	tempMu sync.Mutex
	temps  = map[string]bool{}
)

// mkTemp creates a directory for a durable engine under cfg.tmpRoot.
func mkTemp(cfg config, pattern string) (string, error) {
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(cfg.tmpRoot, pattern)
	if err == nil {
		tempMu.Lock()
		temps[dir] = true
		tempMu.Unlock()
	}
	return dir, err
}

func rmTemp(dir string) {
	os.RemoveAll(dir)
	tempMu.Lock()
	delete(temps, dir)
	tempMu.Unlock()
}

func removeTemps() {
	tempMu.Lock()
	defer tempMu.Unlock()
	for d := range temps {
		os.RemoveAll(d)
	}
}
