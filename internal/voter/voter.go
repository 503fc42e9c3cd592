// Package voter implements the paper's §VII end-to-end application: a
// voter-classification pipeline that joins and filters a voter table
// with a precinct table to form a feature set, one-hot encodes the
// categorical variables, and trains a logistic-regression model for
// five iterations. Figure 6 compares LevelHeaded's unified execution
// against MonetDB/Scikit-learn, Pandas/Scikit-learn, and Spark.
//
// Substitution note (DESIGN.md §1.2): the original dataset (7.5 M North
// Carolina voters, 2,751 precincts) is not redistributable here; the
// generator produces a scaled synthetic population with a hidden
// generative model so training is meaningful. The comparison pipelines
// reproduce each system's *data-movement discipline* — the paper's
// point is that LevelHeaded avoids the transformations entirely by
// using one dictionary-encoded structure for SQL, encoding, and
// training:
//
//   - unified (LevelHeaded): SQL + encoding straight off the
//     dictionary-encoded columnar/trie data; codes are feature ids.
//   - monet (MonetDB/Scikit-learn): column-at-a-time SQL, then a
//     copy-out through a textual boundary (the DB→Python hop), then
//     string-keyed encoding.
//   - pandas (Pandas/Scikit-learn): row-records with boxed values,
//     map-based join, string-keyed encoding.
//   - spark (Spark): row-records plus a partition/shuffle copy before
//     encoding.
//
// Every pipeline trains with the same internal/ml implementation, so
// measured differences come from the SQL and encoding phases only.
package voter

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/ml"
	"repro/internal/storage"
)

var (
	genders       = []string{"F", "M", "U"}
	precinctTypes = []string{"RURAL", "SUBURBAN", "URBAN"}
)

// Schemas returns the two application tables under the LevelHeaded data
// model.
func Schemas() []storage.Schema {
	return []storage.Schema{
		{Name: "precincts", Cols: []storage.ColumnDef{
			{Name: "p_id", Kind: storage.Int64, Role: storage.Key, Domain: "precinct", PK: true},
			{Name: "p_type", Kind: storage.String, Role: storage.Annotation},
			{Name: "p_medincome", Kind: storage.Float64, Role: storage.Annotation},
		}},
		{Name: "voters", Cols: []storage.ColumnDef{
			{Name: "v_id", Kind: storage.Int64, Role: storage.Key, Domain: "voterid", PK: true},
			{Name: "v_precinct", Kind: storage.Int64, Role: storage.Key, Domain: "precinct"},
			{Name: "v_gender", Kind: storage.String, Role: storage.Annotation},
			{Name: "v_age", Kind: storage.Float64, Role: storage.Annotation},
			{Name: "v_voted", Kind: storage.Float64, Role: storage.Annotation},
		}},
	}
}

// Generate fills the two tables with nVoters voters over nPrecincts
// precincts. Labels follow a hidden logistic model over age, gender and
// precinct urbanization so the trained model has signal to find.
func Generate(cat *storage.Catalog, nVoters, nPrecincts int, seed int64) error {
	if nPrecincts < 1 || nVoters < 1 {
		return fmt.Errorf("voter: need at least one voter and precinct")
	}
	r := rand.New(rand.NewSource(seed))
	for _, s := range Schemas() {
		if _, err := cat.Create(s); err != nil {
			return err
		}
	}
	pIDs := make([]int64, nPrecincts)
	pTypes := make([]string, nPrecincts)
	pIncome := make([]float64, nPrecincts)
	typeEffect := make([]float64, nPrecincts)
	for i := 0; i < nPrecincts; i++ {
		pIDs[i] = int64(i)
		ti := r.Intn(3)
		pTypes[i] = precinctTypes[ti]
		pIncome[i] = 30000 + r.Float64()*90000
		typeEffect[i] = []float64{-0.4, 0.1, 0.5}[ti]
	}
	if err := cat.Table("precincts").SetColumnData(map[string]interface{}{
		"p_id": pIDs, "p_type": pTypes, "p_medincome": pIncome,
	}); err != nil {
		return err
	}

	vIDs := make([]int64, nVoters)
	vPrec := make([]int64, nVoters)
	vGender := make([]string, nVoters)
	vAge := make([]float64, nVoters)
	vVoted := make([]float64, nVoters)
	for i := 0; i < nVoters; i++ {
		vIDs[i] = int64(i)
		p := r.Intn(nPrecincts)
		vPrec[i] = int64(p)
		g := r.Intn(3)
		vGender[i] = genders[g]
		age := 18 + r.Float64()*80
		vAge[i] = float64(int(age))
		z := 0.03*(age-45) + []float64{0.2, -0.2, 0}[g] + typeEffect[p] + r.NormFloat64()*0.5
		if z > 0 {
			vVoted[i] = 1
		}
	}
	return cat.Table("voters").SetColumnData(map[string]interface{}{
		"v_id": vIDs, "v_precinct": vPrec, "v_gender": vGender, "v_age": vAge, "v_voted": vVoted,
	})
}

// Phases reports per-phase wall-clock times of one pipeline run —
// Figure 6's stacked bars.
type Phases struct {
	System string
	SQL    time.Duration
	Encode time.Duration
	Train  time.Duration
	N      int
	Acc    float64
}

// Total is the end-to-end time.
func (p Phases) Total() time.Duration { return p.SQL + p.Encode + p.Train }

// Iters is the number of training iterations the paper uses.
const Iters = 5

const trainLR = 0.5

// ageLo/ageHi is the SQL phase's filter (registered adult voters).
const (
	ageLo = 18
	ageHi = 95
)

// featureSpace lays out the shared one-hot space: gender, precinct
// type, precinct id, plus numeric age and income.
func featureSpace(nPrecincts int) *ml.FeatureSpace {
	return ml.NewFeatureSpace([]int{len(genders), len(precinctTypes), nPrecincts}, 2)
}

// RunUnified executes the pipeline the LevelHeaded way: the SQL phase
// filters and joins over the dictionary-encoded columns, and the
// encoding phase uses those same codes as feature indices — no decoding
// and no data-structure conversion between phases (paper §VII).
func RunUnified(cat *storage.Catalog, threads int) (Phases, error) {
	out := Phases{System: "levelheaded"}
	voters := cat.Table("voters")
	prec := cat.Table("precincts")
	if voters == nil || prec == nil {
		return out, fmt.Errorf("voter: tables not loaded")
	}

	// SQL phase: σ_age(voters) ⋈ precincts via the shared precinct
	// domain — the FK is already a dense code, so the "join" is an array
	// lookup into the precinct table's PK index (its trie level).
	t0 := time.Now()
	age := voters.Col("v_age").AnnFloats()
	precCodes := voters.Col("v_precinct").KeyCodes()
	pRowOf := make([]int32, cat.Domain("precinct").Len())
	for i := range pRowOf {
		pRowOf[i] = -1
	}
	for row, code := range prec.Col("p_id").KeyCodes() {
		pRowOf[code] = int32(row)
	}
	sel := make([]int32, 0, voters.NumRows)
	for i := 0; i < voters.NumRows; i++ {
		if age[i] >= ageLo && age[i] <= ageHi && pRowOf[precCodes[i]] >= 0 {
			sel = append(sel, int32(i))
		}
	}
	out.SQL = time.Since(t0)

	// Encode phase: dictionary codes are feature indices directly, so
	// the CSR feature matrix is filled with straight array stores — no
	// hashing, no string decoding, no per-row dispatch.
	t1 := time.Now()
	fs := featureSpace(prec.NumRows)
	genderCodes := voters.Col("v_gender").AnnCodes()
	typeCodes := prec.Col("p_type").AnnCodes()
	income := prec.Col("p_medincome").AnnFloats()
	label := voters.Col("v_voted").AnnFloats()
	const perRow = 5 // gender, type, precinct one-hots + age, income
	nSel := len(sel)
	ds := &ml.Dataset{
		N: nSel, D: fs.Dim,
		RowPtr: make([]int32, nSel+1),
		Cols:   make([]int32, nSel*perRow),
		Vals:   make([]float64, nSel*perRow),
		Y:      make([]float64, nSel),
	}
	gOff := int32(fs.CatOffsets[0])
	tOff := int32(fs.CatOffsets[1])
	pOff := int32(fs.CatOffsets[2])
	nOff := int32(fs.NumOffset)
	for i, row := range sel {
		pRow := pRowOf[precCodes[row]]
		base := i * perRow
		ds.Cols[base+0] = gOff + int32(genderCodes[row])
		ds.Cols[base+1] = tOff + int32(typeCodes[pRow])
		ds.Cols[base+2] = pOff + int32(precCodes[row])
		ds.Cols[base+3] = nOff
		ds.Cols[base+4] = nOff + 1
		ds.Vals[base+0] = 1
		ds.Vals[base+1] = 1
		ds.Vals[base+2] = 1
		ds.Vals[base+3] = age[row] / 100
		ds.Vals[base+4] = income[pRow] / 100000
		ds.RowPtr[i+1] = int32(base + perRow)
		ds.Y[i] = label[row]
	}
	out.Encode = time.Since(t1)

	t2 := time.Now()
	m := ml.TrainLogistic(ds, Iters, trainLR, threads)
	out.Train = time.Since(t2)
	out.N = ds.N
	out.Acc = m.Accuracy(ds)
	return out, nil
}

// record is the boxed row representation the Pandas/Spark-style
// pipelines materialize.
type record struct {
	gender string
	ptype  string
	prec   int64
	age    float64
	income float64
	label  float64
}

// RunMonetSklearn is the MonetDB/Scikit-learn pipeline: column-at-a-
// time SQL with materialized join indexes and *decoded string columns*,
// then a copy-out through a textual boundary (each row serialized and
// re-parsed — the embedded-Python hop), then string-keyed encoding.
func RunMonetSklearn(cat *storage.Catalog, threads int) (Phases, error) {
	out := Phases{System: "monetdb/sklearn"}
	voters := cat.Table("voters")
	prec := cat.Table("precincts")

	// SQL phase (column-at-a-time, fully materialized).
	t0 := time.Now()
	age := voters.Col("v_age").Floats
	sel := make([]int32, 0, voters.NumRows)
	for i := 0; i < voters.NumRows; i++ {
		if age[i] >= ageLo && age[i] <= ageHi {
			sel = append(sel, int32(i))
		}
	}
	pRow := map[int64]int32{}
	for i := 0; i < prec.NumRows; i++ {
		pRow[prec.Col("p_id").Ints[i]] = int32(i)
	}
	joined := make([][2]int32, 0, len(sel))
	for _, r := range sel {
		if pr, ok := pRow[voters.Col("v_precinct").Ints[r]]; ok {
			joined = append(joined, [2]int32{r, pr})
		}
	}
	// Materialize the result columns (decoded strings).
	gcol := make([]string, len(joined))
	tcol := make([]string, len(joined))
	pcol := make([]int64, len(joined))
	acol := make([]float64, len(joined))
	icol := make([]float64, len(joined))
	lcol := make([]float64, len(joined))
	for i, j := range joined {
		gcol[i] = voters.Col("v_gender").Str(int(j[0]))
		tcol[i] = prec.Col("p_type").Str(int(j[1]))
		pcol[i] = voters.Col("v_precinct").Ints[j[0]]
		acol[i] = voters.Col("v_age").Floats[j[0]]
		icol[i] = prec.Col("p_medincome").Floats[j[1]]
		lcol[i] = voters.Col("v_voted").Floats[j[0]]
	}
	out.SQL = time.Since(t0)

	// Copy-out + encode phase: textual boundary, then string-keyed maps.
	t1 := time.Now()
	lines := make([]string, len(joined))
	for i := range joined {
		lines[i] = gcol[i] + "," + tcol[i] + "," + strconv.FormatInt(pcol[i], 10) + "," +
			strconv.FormatFloat(acol[i], 'g', -1, 64) + "," +
			strconv.FormatFloat(icol[i], 'g', -1, 64) + "," +
			strconv.FormatFloat(lcol[i], 'g', -1, 64)
	}
	recs := make([]record, len(lines))
	for i, ln := range lines {
		parts := strings.Split(ln, ",")
		recs[i].gender = parts[0]
		recs[i].ptype = parts[1]
		recs[i].prec, _ = strconv.ParseInt(parts[2], 10, 64)
		recs[i].age, _ = strconv.ParseFloat(parts[3], 64)
		recs[i].income, _ = strconv.ParseFloat(parts[4], 64)
		recs[i].label, _ = strconv.ParseFloat(parts[5], 64)
	}
	ds, err := encodeRecords(recs, prec.NumRows)
	if err != nil {
		return out, err
	}
	out.Encode = time.Since(t1)

	t2 := time.Now()
	m := ml.TrainLogistic(ds, Iters, trainLR, threads)
	out.Train = time.Since(t2)
	out.N = ds.N
	out.Acc = m.Accuracy(ds)
	return out, nil
}

// RunPandasSklearn is the Pandas/Scikit-learn pipeline: boxed
// row-records, map-based join, string-keyed encoding.
func RunPandasSklearn(cat *storage.Catalog, threads int) (Phases, error) {
	return runRecordPipeline(cat, threads, "pandas/sklearn", false)
}

// RunSpark is the Spark pipeline: the record pipeline plus a
// partition/shuffle copy before encoding (the exchange a distributed
// runtime pays even on one node).
func RunSpark(cat *storage.Catalog, threads int) (Phases, error) {
	return runRecordPipeline(cat, threads, "spark", true)
}

func runRecordPipeline(cat *storage.Catalog, threads int, system string, shuffle bool) (Phases, error) {
	out := Phases{System: system}
	voters := cat.Table("voters")
	prec := cat.Table("precincts")

	// SQL phase: row-record materialization and map join.
	t0 := time.Now()
	type pinfo struct {
		ptype  string
		income float64
	}
	pmap := map[int64]pinfo{}
	for i := 0; i < prec.NumRows; i++ {
		pmap[prec.Col("p_id").Ints[i]] = pinfo{prec.Col("p_type").Str(i), prec.Col("p_medincome").Floats[i]}
	}
	recs := make([]record, 0, voters.NumRows)
	for i := 0; i < voters.NumRows; i++ {
		a := voters.Col("v_age").Floats[i]
		if a < ageLo || a > ageHi {
			continue
		}
		pi, ok := pmap[voters.Col("v_precinct").Ints[i]]
		if !ok {
			continue
		}
		recs = append(recs, record{
			gender: voters.Col("v_gender").Str(i),
			ptype:  pi.ptype,
			prec:   voters.Col("v_precinct").Ints[i],
			age:    a,
			income: pi.income,
			label:  voters.Col("v_voted").Floats[i],
		})
	}
	if shuffle {
		// Partition exchange: rows are serialized into per-partition
		// buffers and deserialized on the "receiving" side — the
		// ser/de cost a distributed runtime pays at every shuffle
		// boundary even on one node.
		nPart := 16
		parts := make([][]string, nPart)
		for _, r := range recs {
			p := int(r.prec) % nPart
			parts[p] = append(parts[p], r.gender+","+r.ptype+","+
				strconv.FormatInt(r.prec, 10)+","+
				strconv.FormatFloat(r.age, 'g', -1, 64)+","+
				strconv.FormatFloat(r.income, 'g', -1, 64)+","+
				strconv.FormatFloat(r.label, 'g', -1, 64))
		}
		recs = recs[:0]
		for _, part := range parts {
			for _, ln := range part {
				f := strings.Split(ln, ",")
				var r record
				r.gender, r.ptype = f[0], f[1]
				r.prec, _ = strconv.ParseInt(f[2], 10, 64)
				r.age, _ = strconv.ParseFloat(f[3], 64)
				r.income, _ = strconv.ParseFloat(f[4], 64)
				r.label, _ = strconv.ParseFloat(f[5], 64)
				recs = append(recs, r)
			}
		}
	}
	out.SQL = time.Since(t0)

	t1 := time.Now()
	ds, err := encodeRecords(recs, prec.NumRows)
	if err != nil {
		return out, err
	}
	out.Encode = time.Since(t1)

	t2 := time.Now()
	m := ml.TrainLogistic(ds, Iters, trainLR, threads)
	out.Train = time.Since(t2)
	out.N = ds.N
	out.Acc = m.Accuracy(ds)
	return out, nil
}

// encodeRecords is the string-keyed one-hot encoding the non-unified
// pipelines pay for: every categorical value goes through a hash map.
func encodeRecords(recs []record, nPrecincts int) (*ml.Dataset, error) {
	fs := featureSpace(nPrecincts)
	genderIdx := map[string]uint32{}
	typeIdx := map[string]uint32{}
	b := ml.NewBuilder(fs.Dim)
	cols := make([]int32, 0, 8)
	vals := make([]float64, 0, 8)
	for _, r := range recs {
		g, ok := genderIdx[r.gender]
		if !ok {
			g = uint32(len(genderIdx))
			if int(g) >= len(genders) {
				return nil, fmt.Errorf("voter: too many gender values")
			}
			genderIdx[r.gender] = g
		}
		tc, ok := typeIdx[r.ptype]
		if !ok {
			tc = uint32(len(typeIdx))
			if int(tc) >= len(precinctTypes) {
				return nil, fmt.Errorf("voter: too many precinct types")
			}
			typeIdx[r.ptype] = tc
		}
		cols, vals = fs.Row([]uint32{g, tc, uint32(r.prec)}, []float64{r.age / 100, r.income / 100000}, cols, vals)
		if err := b.AddRow(cols, vals, r.label); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
