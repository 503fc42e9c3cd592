package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/lagen"
)

// laCase is one LA statement with the engine that holds its matrix
// (lagen names every matrix table "matrix", so each gets a catalog).
type laCase struct {
	op    string // smm_harbor, smv_hv15r, dmv_1024, dmm_256, ...
	kind  string // smm, smv, dmv, dmm
	sql   string
	eng   *core.Engine
	n     int
	csr   *blas.CSR // sparse cases
	dense []float64 // dense cases: row-major matrix
	x     []float64 // the vector
}

type laInst struct {
	baseInst
	cases []*laCase
}

func newLA(cfg config) (instance, setupParts, error) {
	in := &laInst{}
	var parts setupParts
	load := func(c *laCase, fill func(*core.Engine) error) error {
		c.eng = core.New(core.WithThreads(cfg.threads))
		in.cases = append(in.cases, c)
		t0 := time.Now()
		if err := fill(c.eng); err != nil {
			return err
		}
		t1 := time.Now()
		err := c.eng.Freeze()
		parts.populateS += t1.Sub(t0).Seconds()
		parts.freezeS += time.Since(t1).Seconds()
		return err
	}
	sparse := func(kind, sql string, sc sparseCase) error {
		spec, err := lagen.Profile(sc.profile, sc.scale)
		if err != nil {
			return err
		}
		c := &laCase{op: kind + "_" + sc.profile, kind: kind, sql: sql, n: spec.N}
		return load(c, func(e *core.Engine) error {
			if _, err := lagen.LoadSparse(e.Catalog(), spec, cfg.seed); err != nil {
				return err
			}
			i, j, v := lagen.Triples(spec, cfg.seed)
			coo, err := blas.NewCOO(spec.N, spec.N, i, j, v)
			if err != nil {
				return err
			}
			c.csr = blas.CompressCOO(coo)
			c.x = e.Catalog().Table("vec").Col("x").Floats
			return nil
		})
	}
	dense := func(kind, sql string, n int) error {
		c := &laCase{op: fmt.Sprintf("%s_%d", kind, n), kind: kind, sql: sql, n: n}
		return load(c, func(e *core.Engine) (err error) {
			if err = lagen.LoadDense(e.Catalog(), n, cfg.seed); err != nil {
				return err
			}
			c.dense, c.x, err = lagen.DenseBuffer(e.Catalog(), n)
			return err
		})
	}
	var err error
	for _, sc := range cfg.size.smm {
		if err == nil {
			err = sparse("smm", lagen.SMMQuery, sc)
		}
	}
	if err == nil {
		err = sparse("smv", lagen.SMVQuery, cfg.size.smv)
	}
	if err == nil {
		err = dense("dmv", lagen.SMVQuery, cfg.size.dmv)
	}
	for _, n := range cfg.size.dmm {
		if err == nil {
			err = dense("dmm", lagen.SMMQuery, n)
		}
	}
	if err != nil {
		in.close()
		return nil, parts, err
	}
	return in, parts, nil
}

func (l *laInst) engines() []*core.Engine {
	var out []*core.Engine
	for _, c := range l.cases {
		out = append(out, c.eng)
	}
	return out
}

func (l *laInst) round(_ *rand.Rand, x *executor) {
	for _, c := range l.cases {
		x.query(c.op, c.eng, c.sql, false)
	}
}

// verify compares every statement's result with the reference kernel
// and, on the way, records the kernel's time for la.vs_blas_ratio.
func (l *laInst) verify(x *executor) {
	blasMs := map[string][]float64{}
	for _, c := range l.cases {
		res, err := c.eng.Query(c.sql)
		if err != nil {
			x.check(c.op, err)
			continue
		}
		var d time.Duration
		switch c.kind {
		case "smv":
			y := make([]float64, c.n)
			d = timeMedian(5, func() { blas.SpMV(c.csr, c.x, y) })
			err = sameVector(res, y)
		case "dmv":
			y := make([]float64, c.n)
			d = timeMedian(5, func() { blas.Gemv(c.n, c.n, c.dense, c.x, y) })
			err = sameVector(res, y)
		case "smm":
			var prod *blas.CSR
			d = timeMedian(3, func() { prod = blas.SpGEMM(c.csr, c.csr) })
			err = sameMatrix(res, c.n, func(i int, row []float64) {
				for k := prod.RowPtr[i]; k < prod.RowPtr[i+1]; k++ {
					row[prod.ColIdx[k]] += prod.Vals[k]
				}
			})
		case "dmm":
			out := make([]float64, c.n*c.n)
			d = timeMedian(3, func() {
				for i := range out {
					out[i] = 0
				}
				blas.Gemm(c.n, c.n, c.n, c.dense, c.dense, out)
			})
			err = sameMatrix(res, c.n, func(i int, row []float64) { copy(row, out[i*c.n:(i+1)*c.n]) })
		}
		x.check(c.op+" vs blas", err)
		blasMs[c.kind] = append(blasMs[c.kind], msOf(d))
	}
	x.lay["blas.spmv_us"] = geomean(blasMs["smv"]) * 1e3
	x.lay["blas.gemv_us"] = geomean(blasMs["dmv"]) * 1e3
	x.lay["blas.spgemm_ms"] = geomean(blasMs["smm"])
	x.lay["blas.gemm_ms"] = geomean(blasMs["dmm"])
}

// finish relates the engine's latency per kernel kind to the reference
// kernel's (both geomeans over the kind's statements).
func (l *laInst) finish(x *executor) {
	engMs := map[string][]float64{}
	for _, c := range l.cases {
		engMs[c.kind] = append(engMs[c.kind], median(x.vals(&x.op(c.op, opQuery).ms)))
	}
	x.lay["la.vs_blas_ratio.smv"] = ratio(geomean(engMs["smv"])*1e3, x.lay["blas.spmv_us"])
	x.lay["la.vs_blas_ratio.dmv"] = ratio(geomean(engMs["dmv"])*1e3, x.lay["blas.gemv_us"])
	x.lay["la.vs_blas_ratio.smm"] = ratio(geomean(engMs["smm"]), x.lay["blas.spgemm_ms"])
	x.lay["la.vs_blas_ratio.dmm"] = ratio(geomean(engMs["dmm"]), x.lay["blas.gemm_ms"])
}

func (l *laInst) layers(x *executor) { tableLayers(x, l.cases[0].eng, "matrix", "i", "j", "") }

func (l *laInst) close() {
	for _, c := range l.cases {
		if c.eng != nil {
			shutdown(c.eng)
			c.eng = nil
		}
	}
}

func closeRel(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// sameVector checks an (index, value) result against a dense vector.
func sameVector(res *exec.Result, want []float64) error {
	if res.NumRows != len(want) {
		return fmt.Errorf("%d rows, want %d", res.NumRows, len(want))
	}
	idx, val := res.Cols[0].I64, res.Cols[1].F64
	for r, i := range idx {
		if i < 0 || int(i) >= len(want) {
			return fmt.Errorf("index %d out of range", i)
		}
		if !closeRel(val[r], want[i]) {
			return fmt.Errorf("y[%d] = %v, want %v", i, val[r], want[i])
		}
	}
	return nil
}

// sameMatrix checks an (i, j, value) result against a reference matrix
// given row by row: addRow accumulates row i into a zeroed scratch row.
// Result rows need not be ordered; entries the reference stores as
// explicit zeros may be absent.
func sameMatrix(res *exec.Result, n int, addRow func(i int, row []float64)) error {
	is, js, vs := res.Cols[0].I64, res.Cols[1].I64, res.Cols[2].F64
	start := make([]int, n+1)
	for _, i := range is {
		if i < 0 || int(i) >= n {
			return fmt.Errorf("row index %d out of range", i)
		}
		start[i+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	byRow := make([]int32, len(is))
	fill := append([]int(nil), start[:n]...)
	for r, i := range is {
		byRow[fill[i]] = int32(r)
		fill[i]++
	}
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := range row {
			row[k] = 0
		}
		addRow(i, row)
		for _, r := range byRow[start[i]:start[i+1]] {
			j := js[r]
			if j < 0 || int(j) >= n || !closeRel(vs[r], row[j]) {
				return fmt.Errorf("c[%d,%d] = %v, reference disagrees", i, j, vs[r])
			}
			row[j] = 0
		}
		for j, v := range row {
			if v != 0 {
				return fmt.Errorf("c[%d,%d] = %v missing from the result", i, j, v)
			}
		}
	}
	return nil
}
