package sqlparse

import (
	"fmt"
	"strconv"
)

// Parse parses a single SELECT statement.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sql: unexpected trailing input %q at %d", p.peek().text, p.peek().pos)
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) backup()     { p.i-- }

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokIdent && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

// acceptSymbol consumes the symbol if present.
func (p *parser) acceptSymbol(s string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %q, got %q at %d", kw, p.peek().text, p.peek().pos)
	}
	return nil
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return fmt.Errorf("sql: expected %q, got %q at %d", s, p.peek().text, p.peek().pos)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	q := &Query{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, ref)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("having") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Having = h
	}
	if p.acceptKeyword("order") {
		return nil, fmt.Errorf("sql: ORDER BY is not supported (the paper's benchmarks omit it)")
	}
	return q, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("as") {
		t := p.next()
		if t.kind != tokIdent {
			return SelectItem{}, fmt.Errorf("sql: expected alias after AS at %d", t.pos)
		}
		item.Alias = t.text
	} else if p.peek().kind == tokIdent && !isReserved(p.peek().text) {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return TableRef{}, fmt.Errorf("sql: expected table name at %d", t.pos)
	}
	ref := TableRef{Table: t.text, Alias: t.text}
	if p.acceptKeyword("as") {
		a := p.next()
		if a.kind != tokIdent {
			return TableRef{}, fmt.Errorf("sql: expected alias after AS at %d", a.pos)
		}
		ref.Alias = a.text
	} else if p.peek().kind == tokIdent && !isReserved(p.peek().text) {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// isReserved lists keywords that terminate implicit aliases.
func isReserved(s string) bool {
	switch s {
	case "select", "from", "where", "group", "by", "and", "or", "not",
		"as", "on", "order", "having", "limit", "between", "in", "like",
		"case", "when", "then", "else", "end", "is", "null", "asc", "desc":
		return true
	}
	return false
}

// Expression grammar (precedence climbing):
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := [NOT] cmpExpr
//	cmpExpr := addExpr [(=|<>|<|<=|>|>=) addExpr
//	         | [NOT] BETWEEN addExpr AND addExpr
//	         | [NOT] IN (expr, ...)
//	         | [NOT] LIKE 'pattern']
//	addExpr := mulExpr ((+|-) mulExpr)*
//	mulExpr := unary ((*|/) unary)*
//	unary   := [-] primary
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("not") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return UnaryExpr{Op: "not", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	negate := false
	if p.peek().kind == tokIdent && p.peek().text == "not" {
		// Lookahead for NOT BETWEEN / NOT IN / NOT LIKE. Only an ident
		// token continues the form — a string literal like 'in' after
		// NOT, or NOT at end of input, must restore and let the caller
		// report the dangling token instead of silently dropping NOT.
		save := p.i
		p.next()
		if nxt := p.peek(); nxt.kind == tokIdent {
			switch nxt.text {
			case "between", "in", "like":
				negate = true
			}
		}
		if !negate {
			p.i = save
			return l, nil
		}
	}
	switch {
	case p.peek().kind == tokSymbol && isCmpOp(p.peek().text):
		op := p.next().text
		if op == "!=" {
			op = "<>"
		}
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return BinaryExpr{Op: op, L: l, R: r}, nil
	case p.acceptKeyword("between"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return BetweenExpr{X: l, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.acceptKeyword("in"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var vals []Expr
		for {
			v, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return InExpr{X: l, Vals: vals, Negate: negate}, nil
	case p.acceptKeyword("like"):
		t := p.next()
		if t.kind != tokString {
			return nil, fmt.Errorf("sql: LIKE requires a string pattern at %d", t.pos)
		}
		return LikeExpr{X: l, Pattern: t.text, Negate: negate}, nil
	}
	return l, nil
}

func isCmpOp(s string) bool {
	switch s {
	case "=", "<>", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokSymbol && (p.peek().text == "+" || p.peek().text == "-") {
		op := p.next().text
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = foldDateArith(BinaryExpr{Op: op, L: l, R: r})
	}
	return l, nil
}

// foldDateArith folds date ± interval into a DateLit at parse time.
func foldDateArith(e BinaryExpr) Expr {
	d, okd := e.L.(DateLit)
	iv, oki := e.R.(IntervalLit)
	if !okd || !oki {
		return e
	}
	n := iv.N
	if e.Op == "-" {
		n = -n
	}
	return DateLit{Days: AddInterval(d.Days, n, iv.Unit)}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokSymbol && (p.peek().text == "*" || p.peek().text == "/") {
		op := p.next().text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if n, ok := x.(NumberLit); ok {
			n.Val = -n.Val
			return n, nil
		}
		return UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q at %d", t.text, t.pos)
		}
		_, ierr := strconv.ParseInt(t.text, 10, 64)
		return NumberLit{Val: v, IsInt: ierr == nil}, nil
	case tokString:
		return StringLit{Val: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, fmt.Errorf("sql: unexpected %q at %d", t.text, t.pos)
	case tokIdent:
		switch t.text {
		case "date":
			s := p.next()
			if s.kind != tokString {
				return nil, fmt.Errorf("sql: DATE requires a string literal at %d", s.pos)
			}
			days, err := ParseDate(s.text)
			if err != nil {
				return nil, err
			}
			return DateLit{Days: days}, nil
		case "interval":
			s := p.next()
			if s.kind != tokString {
				return nil, fmt.Errorf("sql: INTERVAL requires a quoted count at %d", s.pos)
			}
			n, err := strconv.Atoi(s.text)
			if err != nil {
				return nil, fmt.Errorf("sql: bad interval count %q at %d", s.text, s.pos)
			}
			u := p.next()
			if u.kind != tokIdent {
				return nil, fmt.Errorf("sql: expected interval unit at %d", u.pos)
			}
			unit := u.text
			if len(unit) > 1 && unit[len(unit)-1] == 's' {
				unit = unit[:len(unit)-1]
			}
			switch unit {
			case "day", "month", "year":
			default:
				return nil, fmt.Errorf("sql: unsupported interval unit %q", u.text)
			}
			return IntervalLit{N: n, Unit: unit}, nil
		case "case":
			return p.parseCase()
		case "extract":
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			u := p.next()
			if u.kind != tokIdent {
				return nil, fmt.Errorf("sql: expected unit in EXTRACT at %d", u.pos)
			}
			if err := p.expectKeyword("from"); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			switch u.text {
			case "year", "month", "day":
			default:
				return nil, fmt.Errorf("sql: unsupported EXTRACT unit %q", u.text)
			}
			return ExtractExpr{Unit: u.text, X: x}, nil
		}
		// Function call?
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			p.next()
			fc := FuncCall{Name: t.text}
			if p.acceptSymbol("*") {
				fc.Star = true
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.acceptKeyword("distinct") {
				fc.Distinct = true
			}
			if p.acceptSymbol(")") {
				if fc.Distinct {
					return nil, fmt.Errorf("sql: %s(distinct) needs an argument", fc.Name)
				}
				return fc, nil
			}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, a)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// Qualified or bare column reference.
		if p.peek().kind == tokSymbol && p.peek().text == "." {
			p.next()
			c := p.next()
			if c.kind != tokIdent {
				return nil, fmt.Errorf("sql: expected column after %q. at %d", t.text, c.pos)
			}
			return ColRef{Qualifier: t.text, Name: c.text}, nil
		}
		return ColRef{Name: t.text}, nil
	}
	return nil, fmt.Errorf("sql: unexpected end of input")
}

func (p *parser) parseCase() (Expr, error) {
	var ce CaseExpr
	for {
		if p.acceptKeyword("when") {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("then"); err != nil {
				return nil, err
			}
			then, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Then: then})
			continue
		}
		if p.acceptKeyword("else") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ce.Else = e
		}
		if err := p.expectKeyword("end"); err != nil {
			return nil, err
		}
		break
	}
	if len(ce.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE requires at least one WHEN")
	}
	return ce, nil
}
