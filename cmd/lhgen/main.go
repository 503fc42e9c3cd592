// Command lhgen writes the benchmark datasets to delimited files so
// they can be loaded into other systems (or re-loaded with
// Engine.LoadDelimited):
//
//	lhgen -out /tmp/tpch -dataset tpch -sf 0.01
//	lhgen -out /tmp/la   -dataset matrix -profile harbor -la 0.25
//	lhgen -out /tmp/vote -dataset voter -voters 100000
//
// TPC-H tables use '|' (the dbgen .tbl convention); others use ','.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/lagen"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/voter"
)

func main() {
	out := flag.String("out", ".", "output directory")
	dataset := flag.String("dataset", "tpch", "tpch, matrix, voter")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	la := flag.Float64("la", 0.25, "matrix scale")
	profile := flag.String("profile", "harbor", "matrix profile")
	voters := flag.Int("voters", 100000, "voter rows")
	seed := flag.Int64("seed", 2026, "generator seed")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	cat := storage.NewCatalog()
	var delim byte = ','
	switch *dataset {
	case "tpch":
		delim = '|'
		if _, err := tpch.Populate(cat, *sf, *seed); err != nil {
			log.Fatal(err)
		}
	case "matrix":
		spec, err := lagen.Profile(*profile, *la)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := lagen.LoadSparse(cat, spec, *seed); err != nil {
			log.Fatal(err)
		}
	case "voter":
		if err := voter.Generate(cat, *voters, 500, *seed); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown dataset %q", *dataset)
	}

	ext := ".csv"
	if delim == '|' {
		ext = ".tbl"
	}
	for _, name := range cat.Tables() {
		t := cat.Table(name)
		path := filepath.Join(*out, name+ext)
		if err := writeTable(t, path, delim); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d rows)\n", path, t.NumRows)
	}
}

func writeTable(t *storage.Table, path string, delim byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	for r := 0; r < t.NumRows; r++ {
		for ci, col := range t.Cols {
			if ci > 0 {
				w.WriteByte(delim)
			}
			switch col.Def.Kind {
			case storage.Int64:
				w.WriteString(strconv.FormatInt(col.Ints[r], 10))
			case storage.Date:
				w.WriteString(sqlparse.DaysToDate(int32(col.Ints[r])))
			case storage.Float64:
				w.WriteString(strconv.FormatFloat(col.Floats[r], 'g', -1, 64))
			case storage.String:
				w.WriteString(col.Str(r))
			}
		}
		w.WriteByte('\n')
	}
	return w.Flush()
}
