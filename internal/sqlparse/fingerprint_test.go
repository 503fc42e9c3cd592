package sqlparse

import "testing"

// fp parses sql and returns its fingerprint pair, failing the test on a
// parse error.
func fp(t *testing.T, sql string) (string, uint64) {
	t.Helper()
	text, id, err := FingerprintSQL(sql)
	if err != nil {
		t.Fatalf("FingerprintSQL(%q): %v", sql, err)
	}
	if id == 0 {
		t.Fatalf("FingerprintSQL(%q): zero fingerprint", sql)
	}
	return text, id
}

// TestFingerprintCanonicalText pins the canonical rendering: literals
// become ?, IN-lists collapse, keywords and spacing canonicalize.
func TestFingerprintCanonicalText(t *testing.T) {
	cases := []struct {
		sql, want string
	}{
		{
			"SELECT a FROM t WHERE x > 5",
			"select a from t where (x > ?)",
		},
		{
			"SELECT count(*) AS c FROM t",
			"select count(*) as c from t",
		},
		{
			"SELECT a FROM t WHERE x IN (1, 2, 3)",
			"select a from t where (x in (?))",
		},
		{
			"SELECT a FROM t WHERE x NOT IN (1, 2)",
			"select a from t where (x not in (?))",
		},
		{
			"SELECT a FROM t WHERE s LIKE '%green%'",
			"select a from t where (s like ?)",
		},
		{
			"SELECT a FROM t WHERE x BETWEEN 3 AND 9",
			"select a from t where (x between ? and ?)",
		},
		{
			"SELECT sum(r.v) AS s FROM r, q WHERE r.i = q.i GROUP BY r.j",
			"select sum(r.v) as s from r, q where (r.i = q.i) group by r.j",
		},
	}
	for _, c := range cases {
		got, _ := fp(t, c.sql)
		if got != c.want {
			t.Errorf("canonical text of %q:\n got %q\nwant %q", c.sql, got, c.want)
		}
	}
}

// TestFingerprintNormalization checks that statements differing only in
// literals, IN-list length, whitespace or keyword case share one
// fingerprint.
func TestFingerprintNormalization(t *testing.T) {
	groups := [][]string{
		// Literal values don't matter.
		{
			"SELECT a FROM t WHERE x > 5",
			"SELECT a FROM t WHERE x > 12345",
			"select a from t where x > 0",
		},
		// Unary minus over a literal folds into the placeholder.
		{
			"SELECT a FROM t WHERE x > -5",
			"SELECT a FROM t WHERE x > 5",
		},
		// String and date literals too.
		{
			"SELECT a FROM t WHERE s = 'abc'",
			"SELECT a FROM t WHERE s = 'zzzzzz'",
		},
		// IN-lists collapse regardless of arity.
		{
			"SELECT a FROM t WHERE x IN (1, 2, 3, 4, 5)",
			"SELECT a FROM t WHERE x IN (7)",
		},
		// Whitespace and keyword case canonicalize.
		{
			"SELECT a FROM t WHERE x > 5",
			"select    a   from t\twhere x>7",
			"Select a froM t wherE x > 9",
		},
		// LIKE patterns are literals.
		{
			"SELECT a FROM t WHERE s LIKE '%x%'",
			"SELECT a FROM t WHERE s LIKE 'exact'",
		},
	}
	for gi, g := range groups {
		baseText, baseID := fp(t, g[0])
		for _, sql := range g[1:] {
			text, id := fp(t, sql)
			if id != baseID || text != baseText {
				t.Errorf("group %d: %q fingerprints (%q, %016x), want (%q, %016x) like %q",
					gi, sql, text, id, baseText, baseID, g[0])
			}
		}
	}
}

// TestFingerprintDistinctShapes checks that genuinely different query
// shapes keep distinct fingerprints.
func TestFingerprintDistinctShapes(t *testing.T) {
	shapes := []string{
		"SELECT a FROM t WHERE x > 5",
		"SELECT a FROM t WHERE x < 5",             // operator matters
		"SELECT a FROM t WHERE x > 5 AND y > 5",   // predicate structure
		"SELECT a FROM u WHERE x > 5",             // table name
		"SELECT b FROM t WHERE x > 5",             // projection
		"SELECT a AS z FROM t WHERE x > 5",        // alias names the output
		"SELECT a FROM t WHERE x BETWEEN 1 AND 5", // between vs comparison
		"SELECT a FROM t WHERE x IN (1)",          // IN vs equality
		"SELECT a FROM t WHERE x NOT IN (1)",      // NOT variant
		"SELECT a FROM t",                         // no predicate
		"SELECT count(*) AS c FROM t",             // aggregate
		"SELECT sum(a) AS c FROM t",               // aggregate function name
		"SELECT a FROM t GROUP BY a",              // grouping
		"SELECT count(a) AS c FROM t",             // plain count(col)
		"SELECT count(distinct a) AS c FROM t",    // distinct-ness is part of the shape
	}
	seen := map[uint64]string{}
	for _, sql := range shapes {
		_, id := fp(t, sql)
		if prev, dup := seen[id]; dup {
			t.Errorf("fingerprint collision: %q and %q both hash to %016x", prev, sql, id)
		}
		seen[id] = sql
	}
}

// TestFingerprintStability pins the hash algorithm: a changed constant
// would silently split statement history across releases, so the exact
// ID is part of the contract.
func TestFingerprintStability(t *testing.T) {
	text, id := fp(t, "SELECT a FROM t WHERE x > 5")
	_, id2 := fp(t, "select a from t where x > 99")
	if id != id2 {
		t.Fatalf("same shape, different IDs: %016x vs %016x", id, id2)
	}
	// FNV-1a of the canonical text, computed independently.
	want := uint64(14695981039346656037)
	for i := 0; i < len(text); i++ {
		want ^= uint64(text[i])
		want *= 1099511628211
	}
	if id != want {
		t.Errorf("fingerprint of %q = %016x, want FNV-1a %016x", text, id, want)
	}
}

// TestHasLiteral: an expression holds a literal exactly when its
// fingerprint rendering has a placeholder.
func TestHasLiteral(t *testing.T) {
	for src, want := range map[string]bool{
		"extract(year from o_orderdate)":                false,
		"o.o_orderdate":                                 false,
		"(1 - w) * (1 + w)":                             true,
		"CASE WHEN w > 2 THEN w ELSE 0 END":             true,
		"CASE WHEN n_name = 'BRAZIL' THEN 1 ELSE v END": true,
		"a IN (b, c)":                                   false,
		"a IN (1)":                                      true,
		"p_name LIKE '%green%'":                         true,
		"d + interval '1' year":                         true,
		"-x":                                            false,
	} {
		q, err := Parse("SELECT " + src + " AS v FROM t")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := HasLiteral(q.Select[0].Expr); got != want {
			t.Errorf("HasLiteral(%s) = %v, want %v", src, got, want)
		}
	}
}
