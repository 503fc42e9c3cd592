package main

import (
	"context"
	"encoding/json"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/costopt"
	"repro/internal/exec"
	"repro/internal/ghd"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/sqlparse"
)

// span is one traced interval. Spans of one operation share OpID; the
// root span (Parent 0) is the whole operation and its children are the
// layer calls the harness made, plus exec's compile/execute/output
// phases as exec.Options.Stats reports them.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	OpID   int    `json:"op_id"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	opID   int
	caches map[*core.Engine]*exec.TrieCache // the stepped pipeline's own trie caches
	// frontEnd is how long the last stepped operation spent before
	// exec.Run (parse, plan, orders, access paths).
	frontEnd time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), caches: map[*core.Engine]*exec.TrieCache{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID; parent 0 starts a new operation.
func (t *tracer) begin(name, layer string, parent int) int {
	if parent == 0 {
		t.opID++
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, OpID: t.opID, ID: len(t.spans) + 1, Parent: parent, Start: t.now()})
	return len(t.spans)
}

// end closes a span and returns its length.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = t.now()
	return time.Duration(s.End - s.Start)
}

// selfTimes maps each span ID to its duration minus its children's.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// stepped runs one statement the way core.Engine does on a plan-cache
// miss — parse, plan, choose orders, classify access paths, execute —
// but call by call from here, with a span around each layer. It shares
// the engine's catalog and nothing else: its tries live in the tracer's
// own cache. It returns the length of the whole operation.
func (x *executor) stepped(op string, eng *core.Engine, sql string) time.Duration {
	t := x.tr
	cat := eng.Catalog()
	root := t.begin(op, "query", 0)
	fail := func(err error) time.Duration {
		x.tally.attempted++
		x.tally.fail("%s stepped: %v", op, err)
		return t.end(root)
	}

	id := t.begin("parse", "sqlparse", root)
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return fail(err)
	}
	_, fp := sqlparse.Fingerprint(q)
	x.sample("sqlparse.parse_us", op, usOf(t.end(id)))

	id = t.begin("build", "planner", root)
	p, err := planner.Build(q, cat)
	if err != nil {
		return fail(err)
	}
	x.sample("planner.build_us", op, usOf(t.end(id)))

	id = t.begin("choose", "costopt", root)
	ch, err := costopt.Choose(p, costopt.Options{})
	if err != nil {
		return fail(err)
	}
	x.sample("costopt.choose_us", op, usOf(t.end(id)))

	if p.GHD != nil {
		id = t.begin("classify", "costopt", root)
		withPaths := *ch
		// The drift correction is the engine's own: the statement's
		// observed cost ratio, which only engine-path executions feed.
		withPaths.Paths = costopt.ClassifyPaths(p, ch, eng.Telemetry().Statements.CostRatio(fp))
		ch = &withPaths
		x.sample("costopt.classify_us", op, usOf(t.end(id)))
	}

	cache := t.caches[eng]
	if cache == nil {
		cache = exec.NewTrieCache()
		t.caches[eng] = cache
	}
	t.frontEnd = time.Duration(t.now() - t.spans[root-1].Start)
	st := &obs.QueryStats{}
	a0, _ := obs.HeapCounters()
	id = t.begin("run", "exec", root)
	res, err := exec.Run(p, ch, cat, exec.Options{
		Threads: x.cfg.threads, Cache: cache, Stats: st,
		Ctx: context.Background(), Snap: cat.Snapshot(),
	})
	t.end(id)
	a1, _ := obs.HeapCounters()
	if err != nil {
		return fail(err)
	}
	// exec reports its phases as durations; lay them end to end inside
	// the run span, never past its end.
	at, runEnd := t.spans[id-1].Start, t.spans[id-1].End
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"compile", st.Phases.Compile}, {"execute", st.Phases.Execute}, {"output", st.Phases.Output}} {
		end := at + int64(ph.d)
		if end > runEnd {
			end = runEnd
		}
		t.spans = append(t.spans, span{Name: ph.name, Layer: "exec", OpID: t.opID, ID: len(t.spans) + 1, Parent: id, Start: at, End: end})
		at = end
		x.sample("exec."+ph.name+"_ms", op, msOf(ph.d))
	}
	total := t.end(root)
	x.sample("stepped_ms", op, msOf(total))

	// The planner runs the decomposition inside Build; time it alone on
	// the plan's hypergraph, outside the operation's span.
	if p.GHD != nil {
		g0 := time.Now()
		if _, err := ghd.Decompose(p.HG, ghd.Options{RootMustContain: p.OutVertices}); err == nil {
			x.sample("ghd.decompose_us", op, usOf(time.Since(g0)))
		}
	}

	c := x.count
	c["ops"]++
	c["rows_out"] += float64(res.NumRows)
	c["alloc_bytes"] += float64(a1 - a0)
	c["tries_built"] += float64(st.TriesBuilt)
	c["dispatch."+st.Dispatch]++
	in := &st.Intersect
	c["isect"] += float64(in.Total())
	c["uu_merge"] += float64(in.UintUintMerge)
	c["uu_gallop"] += float64(in.UintUintGallop)
	c["bs_uint"] += float64(in.BsUint)
	c["bs_bs"] += float64(in.BsBs)
	c["probes"] += float64(in.Probes)
	c["bytes_out"] += float64(in.BytesOut)
	c["delta_rows"] += float64(cat.DeltaRows())
	for _, nc := range st.NodeCosts {
		c["nodes"]++
		if nc.Path == costopt.PathBinary {
			c["nodes_binary"]++
		}
		if nc.Est > 0 {
			x.sample("costopt.cost_ratio", op, nc.Ratio)
		}
	}
	return total
}

// engineCounters sums the cumulative metrics of the given engines.
func engineCounters(engs []*core.Engine) map[string]int64 {
	sum := map[string]int64{}
	for _, e := range engs {
		for k, v := range e.Metrics().SnapshotCounters() {
			sum[k] += v
		}
		sum["gov_shed"] += e.Telemetry().Counters()["gov_shed"]
	}
	return sum
}

// reduceLayers turns the samples and counters of a traced run into the
// per-layer metrics. before/after are engineCounters around the timed
// section.
func (x *executor) reduceLayers(before, after map[string]int64) {
	lay, c := x.lay, x.count
	for _, name := range []string{"sqlparse.parse_us", "planner.build_us", "ghd.decompose_us", "costopt.choose_us",
		"costopt.classify_us", "core.overhead_us", "exec.compile_ms", "exec.execute_ms", "exec.output_ms"} {
		lay[name+"_p50"] = x.perOp(name, 0.5)
	}
	lay["costopt.cost_ratio_p50"] = x.perOp("costopt.cost_ratio", 0.5)
	lay["costopt.cost_ratio_p90"] = x.perOp("costopt.cost_ratio", 0.9)

	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	lay["core.plan_cache_hit_ratio"] = ratio(delta("plan_cache_hits"), delta("queries"))
	lay["core.trie_cache_hit_ratio"] = ratio(delta("trie_cache_hits"), delta("trie_cache_hits")+delta("trie_cache_misses"))
	lay["governor.shed_total"] = float64(after["gov_shed"])

	ops := c["ops"]
	lay["exec.tries_built_per_op"] = ratio(c["tries_built"], ops)
	lay["exec.rows_out_per_op"] = ratio(c["rows_out"], ops)
	lay["exec.alloc_mb_per_op"] = ratio(c["alloc_bytes"]/(1<<20), ops)
	lay["exec.path_binary_share"] = ratio(c["nodes_binary"], c["nodes"])
	for _, class := range []string{obs.DispatchScalarScan, obs.DispatchHybrid, obs.DispatchWCOJ, obs.DispatchDenseMM,
		obs.DispatchDenseMV, obs.DispatchSpMVGather, obs.DispatchSpMVScatter} {
		lay["exec.dispatch."+class+"_share"] = ratio(c["dispatch."+class], ops)
	}
	lay["set.isect_per_op"] = ratio(c["isect"], ops)
	lay["set.uint_uint_merge_share"] = ratio(c["uu_merge"], c["isect"])
	lay["set.uint_uint_gallop_share"] = ratio(c["uu_gallop"], c["isect"])
	lay["set.bs_uint_share"] = ratio(c["bs_uint"], c["isect"])
	lay["set.bs_bs_share"] = ratio(c["bs_bs"], c["isect"])
	lay["set.probes_per_op"] = ratio(c["probes"], ops)
	lay["set.bytes_out_per_op"] = ratio(c["bytes_out"], ops)
	lay["storage.delta_rows_folded_per_op"] = ratio(c["delta_rows"], ops)

	// Traced over untraced latency of the same statements in this run.
	var steppedP50, engineP50 []float64
	for _, o := range x.ops {
		if st := x.samples["stepped_ms"][o.name]; st != nil {
			steppedP50 = append(steppedP50, median(x.vals(st)))
			engineP50 = append(engineP50, median(x.vals(&o.ms)))
		}
	}
	lay["trace.overhead_ratio"] = ratio(geomean(steppedP50), geomean(engineP50))
}
