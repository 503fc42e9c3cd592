package main

import (
	"fmt"
	"math/rand"

	"repro/internal/sqlparse"
	"repro/internal/tpch"
)

// The value pools tpch.Populate draws from (unexported there). A
// substitution parameter outside its pool would select nothing, so
// params_test.go checks every generated statement still returns rows.
var (
	regions      = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations      = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	nationRegion = []int{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	shipmodes    = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	typeSyl1     = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2     = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3     = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	colors       = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew", "hot", "hotpink", "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring", "steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow"}
)

func pick(r *rand.Rand, pool []string) string { return pool[r.Intn(len(pool))] }

// colourPatterns are q9's LIKE operands: every run of at least four
// letters of a colour word (the whole word for shorter ones). Every part
// name holding the colour still matches, and a run draws from 625
// patterns where the whole words alone would soon repeat.
var colourPatterns = func() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range colors {
		for n := min(4, len(c)); n <= len(c); n++ {
			for at := 0; at+n <= len(c); at++ {
				if p := c[at : at+n]; !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
	}
	return out
}()

// dayIn draws a date from [from, from+days) as 'YYYY-MM-DD'.
func dayIn(r *rand.Rand, from string, days int) string {
	return sqlparse.DaysToDate(int32(mustDay(from)) + int32(r.Intn(days)))
}

// paramSQL renders one TPC-H query (q1, q3, q5, q6, q8, q9, q10) with
// the TPC-H substitution parameters (spec §2.4) drawn from r. The text
// keeps the shape of tpch.Queries[name] — only literals move — so the
// statement fingerprint is the paper text's while the plan cache, keyed
// on the raw text, misses on every new binding. Dates are drawn by day
// where the spec draws by month or year: the windows keep their length
// (and so their selectivity) but a binding rarely repeats within a run;
// q9's colour is drawn from colourPatterns for the same reason.
func paramSQL(name string, r *rand.Rand) string {
	switch name {
	case "q1":
		return fmt.Sprintf(`SELECT l_returnflag, l_linestatus,
		sum(l_quantity) as sum_qty,
		sum(l_extendedprice) as sum_base_price,
		sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
		sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
		avg(l_quantity) as avg_qty,
		avg(l_extendedprice) as avg_price,
		avg(l_discount) as avg_disc,
		count(*) as count_order
		FROM lineitem
		WHERE l_shipdate <= date '%s' - interval '%d' day
		GROUP BY l_returnflag, l_linestatus`, dayIn(r, "1998-09-01", 92), 60+r.Intn(61))
	case "q3":
		d := dayIn(r, "1995-01-01", 181)
		return fmt.Sprintf(`SELECT l_orderkey,
		sum(l_extendedprice * (1 - l_discount)) as revenue,
		o_orderdate, o_shippriority
		FROM customer, orders, lineitem
		WHERE c_mktsegment = '%s'
		AND c_custkey = o_custkey AND l_orderkey = o_orderkey
		AND o_orderdate < date '%s'
		AND l_shipdate > date '%s'
		GROUP BY l_orderkey, o_orderdate, o_shippriority`, pick(r, segments), d, d)
	case "q5":
		d := dayIn(r, "1993-01-01", 1461)
		return fmt.Sprintf(`SELECT n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
		FROM customer, orders, lineitem, supplier, nation, region
		WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
		AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
		AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		AND r_name = '%s'
		AND o_orderdate >= date '%s'
		AND o_orderdate < date '%s' + interval '1' year
		GROUP BY n_name`, pick(r, regions), d, d)
	case "q6":
		d := dayIn(r, "1993-01-01", 1461)
		disc := float64(2+r.Intn(8)) / 100
		return fmt.Sprintf(`SELECT sum(l_extendedprice * l_discount) as revenue
		FROM lineitem
		WHERE l_shipdate >= date '%s'
		AND l_shipdate < date '%s' + interval '1' year
		AND l_discount between %.2f - 0.01 and %.2f + 0.01
		AND l_quantity < %d`, d, d, disc, disc, 24+r.Intn(2))
	case "q8":
		n := r.Intn(len(nations))
		typ := pick(r, typeSyl1) + " " + pick(r, typeSyl2) + " " + pick(r, typeSyl3)
		return fmt.Sprintf(`SELECT extract(year from o_orderdate) as o_year,
		sum(case when n2.n_name = '%s' then l_extendedprice * (1 - l_discount) else 0 end) /
		sum(l_extendedprice * (1 - l_discount)) as mkt_share
		FROM part, supplier, lineitem, orders, customer, nation as n1, nation as n2, region
		WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
		AND l_orderkey = o_orderkey AND o_custkey = c_custkey
		AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey
		AND r_name = '%s' AND s_nationkey = n2.n_nationkey
		AND o_orderdate between date '1995-01-01' and date '1996-12-31'
		AND p_type = '%s'
		GROUP BY o_year`, nations[n], regions[nationRegion[n]], typ)
	case "q9":
		return fmt.Sprintf(`SELECT n_name, extract(year from o_orderdate) as o_year,
		sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) as sum_profit
		FROM part, supplier, lineitem, partsupp, orders, nation
		WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
		AND ps_partkey = l_partkey AND p_partkey = l_partkey
		AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
		AND p_name like '%%%s%%'
		GROUP BY n_name, o_year`, pick(r, colourPatterns))
	case "q10":
		d := dayIn(r, "1993-02-01", 700)
		return fmt.Sprintf(`SELECT c_custkey, c_name,
		sum(l_extendedprice * (1 - l_discount)) as revenue,
		c_acctbal, n_name, c_address, c_phone, c_comment
		FROM customer, orders, lineitem, nation
		WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
		AND o_orderdate >= date '%s'
		AND o_orderdate < date '%s' + interval '3' month
		AND l_returnflag = 'R' AND c_nationkey = n_nationkey
		GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment`, d, d)
	}
	panic("paramSQL: unknown query " + name)
}

// lineitemBatch draws n lineitem rows (schema column order) for order
// keys that already exist at sz, shaped like tpch.Populate's: the part →
// supplier mapping, the price formula and the flag/status rules match,
// so appended rows join and filter like the base data. Line numbers
// start at 8 to stay clear of the generator's 1..7.
func lineitemBatch(r *rand.Rand, sz tpch.Sizes, n int) [][]interface{} {
	start, end := mustDay("1992-01-01"), mustDay("1998-08-02")
	cutoff := mustDay("1995-06-17")
	rows := make([][]interface{}, n)
	for i := range rows {
		pk := int64(r.Intn(sz.Part) + 1)
		sk := (pk+int64(r.Intn(4))*int64(sz.Supplier/4+1))%int64(sz.Supplier) + 1
		qty := float64(r.Intn(50) + 1)
		ship := start + int64(r.Intn(int(end-start)))
		rcpt := ship + int64(r.Intn(30)+1)
		flag, stat := "N", "O"
		if rcpt <= cutoff {
			flag = []string{"R", "A"}[r.Intn(2)]
		}
		if ship <= cutoff {
			stat = "F"
		}
		rows[i] = []interface{}{
			int64(r.Intn(sz.Orders) + 1), pk, sk, int64(8 + r.Intn(8)),
			qty, qty * (900 + float64(pk%200000)/10) / 10,
			float64(r.Intn(11)) / 100, float64(r.Intn(9)) / 100,
			flag, stat, ship, ship - int64(r.Intn(60)), rcpt, pick(r, shipmodes),
		}
	}
	return rows
}

func mustDay(s string) int64 {
	d, err := sqlparse.ParseDate(s)
	if err != nil {
		panic(err)
	}
	return int64(d)
}
