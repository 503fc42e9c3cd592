package difftest

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/refeval"
	"repro/internal/storage"
)

// RunIngestLane exercises the live-data path: load only a prefix of
// each table, query (which freezes the catalog), then append the
// remaining rows in two batches while comparing the engine against
// refeval on the growing dataset after every batch, running each
// stage's query twice and demanding bit-identical runs. Finally it runs
// the query immediately before and after a Compact and demands
// bit-identical results — compaction must be invisible to readers.
func RunIngestLane(c *Case) Outcome {
	eng := core.New()
	tabs := make([]*storage.Table, len(c.Tables))
	rows := make([][][]any, len(c.Tables)) // decoded rows per table
	for ti, td := range c.Tables {
		s := storage.Schema{Name: td.Name}
		for _, cd := range td.Cols {
			def, err := cd.storageDef()
			if err != nil {
				return Outcome{Verdict: Skip, Detail: err.Error()}
			}
			s.Cols = append(s.Cols, def)
		}
		t, err := eng.CreateTable(s)
		if err != nil {
			return Outcome{Verdict: Skip, Detail: err.Error()}
		}
		tabs[ti] = t
		for _, row := range td.Rows {
			if len(row) != len(td.Cols) {
				return Outcome{Verdict: Skip, Detail: "row width mismatch"}
			}
			vals := make([]any, len(row))
			for i, cell := range row {
				v, err := decodeCell(td.Cols[i].Kind, cell)
				if err != nil {
					return Outcome{Verdict: Skip, Detail: err.Error()}
				}
				vals[i] = v
			}
			rows[ti] = append(rows[ti], vals)
		}
	}

	// Clamp the splits so Reduce can shrink rows without invalidating
	// the case, then derive three cumulative load points per table:
	// prefix, prefix + half the remainder, everything.
	stages := make([][3]int, len(c.Tables))
	for ti := range c.Tables {
		n := len(rows[ti])
		s := n / 2
		if ti < len(c.Split) {
			s = c.Split[ti]
		}
		if s < 0 {
			s = 0
		}
		if s > n {
			s = n
		}
		mid := s + (n-s+1)/2
		stages[ti] = [3]int{s, mid, n}
	}

	// Load each table's prefix, pre-freeze.
	for ti, t := range tabs {
		for _, vals := range rows[ti][:stages[ti][0]] {
			if err := t.Append(vals...); err != nil {
				return Outcome{Verdict: Skip, Detail: err.Error()}
			}
		}
	}

	var last *exec.Result
	for stage := 0; stage < 3; stage++ {
		if stage > 0 {
			// Append this stage's batch — the engine is frozen by now, so
			// these rows land in the delta stores.
			for ti, t := range tabs {
				for _, vals := range rows[ti][stages[ti][stage-1]:stages[ti][stage]] {
					if err := t.Append(vals...); err != nil {
						return disagree("stage %d append failed: %v", stage, err)
					}
				}
			}
		}
		counts := make([]int, len(c.Tables))
		for ti := range c.Tables {
			counts[ti] = stages[ti][stage]
		}
		res, out := c.compareAtPrefix(eng, counts, stage)
		if out.Verdict != Agree {
			return out
		}
		// The second run hits the trie cache: once a filtered relation's
		// base order exists, it derives from that base plus a tail of the
		// rows appended since.
		again, err := eng.Query(c.SQL)
		if err != nil {
			return disagree("stage %d: second run failed: %v", stage, err)
		}
		if err := strictSameResult(res, again); err != nil {
			return disagree("stage %d: first and second runs differ: %v", stage, err)
		}
		last = res
	}

	// Compaction must not change a single bit of the result.
	if err := eng.Compact(context.Background()); err != nil {
		return disagree("compact failed: %v", err)
	}
	post, err := eng.Query(c.SQL)
	if err != nil {
		return disagree("post-compact query failed: %v", err)
	}
	if err := strictSameResult(last, post); err != nil {
		return disagree("pre/post-compact results differ: %v", err)
	}
	// And the deltas must actually be folded away.
	for _, t := range tabs {
		if d := t.DeltaRows(); d != 0 {
			return disagree("table %s still has %d delta rows after compact", t.Schema.Name, d)
		}
	}
	return Outcome{Verdict: Agree}
}

// compareAtPrefix runs c.SQL on the live engine and on refeval over
// the first counts[i] rows of each table, comparing like the refeval
// lane.
func (c *Case) compareAtPrefix(eng *core.Engine, counts []int, stage int) (*exec.Result, Outcome) {
	engRes, engErr := eng.Query(c.SQL)

	rels, err := c.Relations()
	if err != nil {
		return nil, Outcome{Verdict: Skip, Detail: err.Error()}
	}
	for ti, td := range c.Tables {
		rel := rels[td.Name]
		rel.Rows = rel.Rows[:counts[ti]]
	}
	refRes, refErr := refeval.Eval(c.SQL, rels)

	switch {
	case engErr != nil && planReject(engErr):
		return nil, Outcome{Verdict: Skip, Detail: engErr.Error()}
	case engErr != nil && refErr != nil:
		return nil, Outcome{Verdict: Skip, Detail: engErr.Error()}
	case engErr != nil:
		return nil, disagree("stage %d: engine failed, reference succeeded: %v", stage, engErr)
	case refErr != nil:
		return nil, Outcome{Verdict: Skip, Detail: refErr.Error()}
	}
	if err := CompareResults(engRes, refRes); err != nil {
		return nil, disagree("stage %d (rows %v): %v", stage, counts, err)
	}
	return engRes, Outcome{Verdict: Agree}
}

// strictSameResult demands bitwise-identical result multisets: same
// columns, same rows, aggregates compared by exact float bits (no
// tolerance). Row order may legitimately vary between runs (hash-table
// emit order), so rows are canonicalized and sorted first.
func strictSameResult(a, b *exec.Result) error {
	if a.NumRows != b.NumRows {
		return fmt.Errorf("row count %d vs %d", a.NumRows, b.NumRows)
	}
	if len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("column count %d vs %d", len(a.Cols), len(b.Cols))
	}
	for i := range a.Cols {
		if a.Cols[i].Kind != b.Cols[i].Kind || a.Cols[i].Name != b.Cols[i].Name {
			return fmt.Errorf("column %d: %s/%v vs %s/%v",
				i, a.Cols[i].Name, a.Cols[i].Kind, b.Cols[i].Name, b.Cols[i].Kind)
		}
	}
	ka, kb := strictRowKeys(a), strictRowKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Errorf("row %d (canonical order): %q vs %q", i, ka[i], kb[i])
		}
	}
	return nil
}

func strictRowKeys(res *exec.Result) []string {
	keys := make([]string, res.NumRows)
	var sb strings.Builder
	for i := 0; i < res.NumRows; i++ {
		sb.Reset()
		for _, col := range res.Cols {
			switch col.Kind {
			case exec.KindInt:
				sb.WriteString(strconv.FormatInt(col.I64[i], 10))
			case exec.KindFloat:
				sb.WriteString(strconv.FormatUint(math.Float64bits(col.F64[i]), 16))
			default:
				sb.WriteString(col.Str[i])
			}
			sb.WriteByte(0)
		}
		keys[i] = sb.String()
	}
	sort.Strings(keys)
	return keys
}

// GenIngestCase wraps the main generator's candidate with random
// per-table split points, so the same query/dataset space is replayed
// through partial load + live append + compaction.
func (g *Gen) GenIngestCase() (*Case, *QuerySpec) {
	c, spec := g.Candidate()
	c.Lane = "ingest"
	c.Split = make([]int, len(c.Tables))
	for i, td := range c.Tables {
		c.Split[i] = g.rnd.Intn(len(td.Rows) + 1)
	}
	return c, spec
}
