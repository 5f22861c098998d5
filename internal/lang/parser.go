package lang

import (
	"fmt"
	"strconv"
)

// Parse lexes and parses src into a Program and runs semantic analysis.
func Parse(src string) (*Program, error) {
	lines, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{lines: lines}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	if err := Analyze(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseNoSema parses without semantic analysis; tests use it to target
// specific sema diagnostics.
func ParseNoSema(src string) (*Program, error) {
	lines, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{lines: lines}
	return p.parseProgram()
}

// parser is a cursor over logical lines; each statement parse consumes one
// or more whole lines.
type parser struct {
	lines []Line
	pos   int
}

func (p *parser) atEOF() bool   { return p.pos >= len(p.lines) }
func (p *parser) current() Line { return p.lines[p.pos] }
func (p *parser) advance()      { p.pos++ }

// head returns the first token of the current line, or an EOF token.
func (p *parser) head() Token {
	if p.atEOF() || len(p.current().Tokens) == 0 {
		return Token{Kind: EOF}
	}
	return p.current().Tokens[0]
}

// headIs reports whether the current line starts with the given keyword.
func (p *parser) headIs(kw string) bool {
	t := p.head()
	return t.Kind == KWWORD && t.Text == kw
}

// headIsElseIf matches both "ELSEIF" and "ELSE IF ... THEN".
func (p *parser) headIsElseIf() bool {
	if p.headIs("ELSEIF") {
		return true
	}
	if !p.headIs("ELSE") {
		return false
	}
	toks := p.current().Tokens
	return len(toks) > 1 && toks[1].Kind == KWWORD && toks[1].Text == "IF"
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for !p.atEOF() {
		u, err := p.parseUnit()
		if err != nil {
			return nil, err
		}
		prog.Units = append(prog.Units, u)
	}
	if len(prog.Units) == 0 {
		return nil, fmt.Errorf("empty source: no PROGRAM or SUBROUTINE unit")
	}
	return prog, nil
}

func (p *parser) parseUnit() (*Unit, error) {
	line := p.current()
	ts := newTokens(line)
	u := &Unit{}
	switch {
	case ts.acceptKW("PROGRAM"):
		u.IsMain = true
		name, err := ts.expectIdent()
		if err != nil {
			return nil, err
		}
		u.Name = name
	case ts.acceptKW("SUBROUTINE"):
		name, err := ts.expectIdent()
		if err != nil {
			return nil, err
		}
		u.Name = name
		if ts.accept(LPAREN) {
			for !ts.accept(RPAREN) {
				pn, err := ts.expectIdent()
				if err != nil {
					return nil, err
				}
				u.Params = append(u.Params, pn)
				if !ts.accept(COMMA) && ts.peek().Kind != RPAREN {
					return nil, ts.errHere("expected ',' or ')' in parameter list")
				}
			}
		}
	default:
		return nil, errf(line.Num, 1, "expected PROGRAM or SUBROUTINE, got %v", p.head())
	}
	if err := ts.expectEOL(); err != nil {
		return nil, err
	}
	p.advance()

	// Declaration section.
	for !p.atEOF() {
		line := p.current()
		ts := newTokens(line)
		switch {
		case ts.acceptKW("INTEGER"), ts.acceptKW("REAL"), ts.acceptKW("LOGICAL"):
			ty := map[string]Type{"INTEGER": TInt, "REAL": TReal, "LOGICAL": TLogical}[line.Tokens[0].Text]
			d := &Decl{Type: ty, Line: line.Num, Col: line.Tokens[0].Col}
			for {
				name, err := ts.expectIdent()
				if err != nil {
					return nil, err
				}
				item := DeclItem{Name: name}
				if ts.accept(LPAREN) {
					for {
						dim, err := ts.parseExpr()
						if err != nil {
							return nil, err
						}
						item.Dims = append(item.Dims, dim)
						if ts.accept(RPAREN) {
							break
						}
						if !ts.accept(COMMA) {
							return nil, ts.errHere("expected ',' or ')' in array bounds")
						}
					}
				}
				d.Items = append(d.Items, item)
				if !ts.accept(COMMA) {
					break
				}
			}
			if err := ts.expectEOL(); err != nil {
				return nil, err
			}
			u.Decls = append(u.Decls, d)
			p.advance()
			continue
		case ts.acceptKW("DIMENSION"):
			// DIMENSION A(10), B(5,5): array shape with implicit typing.
			d := &Decl{Type: TNone, Line: line.Num, Col: line.Tokens[0].Col}
			for {
				name, err := ts.expectIdent()
				if err != nil {
					return nil, err
				}
				if !ts.accept(LPAREN) {
					return nil, ts.errHere("DIMENSION requires array bounds")
				}
				item := DeclItem{Name: name}
				for {
					dim, err := ts.parseExpr()
					if err != nil {
						return nil, err
					}
					item.Dims = append(item.Dims, dim)
					if ts.accept(RPAREN) {
						break
					}
					if !ts.accept(COMMA) {
						return nil, ts.errHere("expected ',' or ')' in array bounds")
					}
				}
				d.Items = append(d.Items, item)
				if !ts.accept(COMMA) {
					break
				}
			}
			if err := ts.expectEOL(); err != nil {
				return nil, err
			}
			u.Decls = append(u.Decls, d)
			p.advance()
			continue
		case ts.acceptKW("PARAMETER"):
			// PARAMETER (N = 100, M = 2*N)
			if !ts.accept(LPAREN) {
				return nil, ts.errHere("expected '(' after PARAMETER")
			}
			for {
				name, err := ts.expectIdent()
				if err != nil {
					return nil, err
				}
				if !ts.accept(ASSIGN) {
					return nil, ts.errHere("expected '=' in PARAMETER")
				}
				val, err := ts.parseExpr()
				if err != nil {
					return nil, err
				}
				u.Consts = append(u.Consts, &Const{Name: name, Value: val, Line: line.Num, Col: line.Tokens[0].Col})
				if ts.accept(RPAREN) {
					break
				}
				if !ts.accept(COMMA) {
					return nil, ts.errHere("expected ',' or ')' in PARAMETER")
				}
			}
			if err := ts.expectEOL(); err != nil {
				return nil, err
			}
			p.advance()
			continue
		}
		break // first executable statement
	}

	// Executable statements until END.
	body, err := p.parseBlock(func() bool { return p.headIs("END") && len(p.current().Tokens) == 1 })
	if err != nil {
		return nil, err
	}
	if p.atEOF() {
		return nil, fmt.Errorf("unit %s: missing END", u.Name)
	}
	p.advance() // consume END
	u.Body = body
	return u, nil
}

// parseBlock parses statements until stop() is true (the stopping line is
// not consumed) or EOF.
func (p *parser) parseBlock(stop func() bool) ([]Stmt, error) {
	var body []Stmt
	for !p.atEOF() && !stop() {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
	}
	return body, nil
}

// blockEnder reports whether the current line is a structural terminator
// that an enclosing construct must handle (ELSE/ELSEIF/ENDIF/ENDDO/END).
func (p *parser) blockEnder() bool {
	return p.headIs("ELSE") || p.headIs("ELSEIF") || p.headIs("ENDIF") ||
		p.headIs("ENDDO") || (p.headIs("END") && len(p.current().Tokens) == 1)
}

// parseStmt parses one statement (consuming one or more lines).
func (p *parser) parseStmt() (Stmt, error) {
	line := p.current()
	if p.blockEnder() {
		return nil, errf(line.Num, 1, "unexpected %s", p.head().Text)
	}
	base := StmtBase{Line: line.Num, Label: line.Label}
	if len(line.Tokens) > 0 {
		base.Col = line.Tokens[0].Col
	}
	ts := newTokens(line)
	switch {
	case ts.acceptKW("IF"):
		return p.parseIf(base, ts)
	case ts.acceptKW("DO"):
		return p.parseDo(base, ts)
	case ts.acceptKW("GOTO"):
		p.advance()
		return parseGotoTail(base, ts)
	case ts.acceptKW("CALL"):
		p.advance()
		return parseCallTail(base, ts)
	case ts.acceptKW("RETURN"):
		p.advance()
		if err := ts.expectEOL(); err != nil {
			return nil, err
		}
		return &Return{base}, nil
	case ts.acceptKW("STOP"):
		p.advance()
		// Allow "STOP n" / "STOP 'msg'" and ignore the code.
		if ts.peek().Kind == INTLIT || ts.peek().Kind == STRINGLIT {
			ts.next()
		}
		if err := ts.expectEOL(); err != nil {
			return nil, err
		}
		return &StopStmt{base}, nil
	case ts.acceptKW("CONTINUE"):
		p.advance()
		if err := ts.expectEOL(); err != nil {
			return nil, err
		}
		return &Continue{base}, nil
	case ts.acceptKW("PRINT"):
		p.advance()
		return parsePrintTail(base, ts)
	case ts.acceptKW("WRITE"):
		p.advance()
		return parseWriteTail(base, ts)
	case ts.peek().Kind == IDENT:
		p.advance()
		return parseAssignTail(base, ts)
	}
	return nil, errf(line.Num, 1, "cannot parse statement starting with %v", ts.peek())
}

// parseIf handles the three IF forms. ts has consumed the IF keyword.
func (p *parser) parseIf(base StmtBase, ts *tokens) (Stmt, error) {
	if !ts.accept(LPAREN) {
		return nil, ts.errHere("expected '(' after IF")
	}
	cond, err := ts.parseExpr()
	if err != nil {
		return nil, err
	}
	if !ts.accept(RPAREN) {
		return nil, ts.errHere("expected ')' after IF condition")
	}
	switch {
	case ts.acceptKW("THEN"):
		if err := ts.expectEOL(); err != nil {
			return nil, err
		}
		p.advance()
		return p.parseIfBlock(base, cond)
	case ts.peek().Kind == INTLIT:
		// Arithmetic IF: three labels.
		var labs [3]int
		for i := 0; i < 3; i++ {
			l, err := ts.expectLabel()
			if err != nil {
				return nil, err
			}
			labs[i] = l
			if i < 2 && !ts.accept(COMMA) {
				return nil, ts.errHere("expected ',' in arithmetic IF")
			}
		}
		if err := ts.expectEOL(); err != nil {
			return nil, err
		}
		p.advance()
		return &ArithIf{StmtBase: base, Expr: cond, OnNeg: labs[0], OnZero: labs[1], OnPos: labs[2]}, nil
	default:
		// Logical IF: a single simple statement on the same line.
		inner, err := p.parseSimpleTail(StmtBase{Line: base.Line, Col: ts.peek().Col}, ts)
		if err != nil {
			return nil, err
		}
		p.advance()
		return &LogicalIf{StmtBase: base, Cond: cond, Then: inner}, nil
	}
}

// parseSimpleTail parses the single-statement body of a logical IF from the
// remaining tokens of the line.
func (p *parser) parseSimpleTail(base StmtBase, ts *tokens) (Stmt, error) {
	switch {
	case ts.acceptKW("GOTO"):
		return parseGotoTail(base, ts)
	case ts.acceptKW("CALL"):
		return parseCallTail(base, ts)
	case ts.acceptKW("RETURN"):
		if err := ts.expectEOL(); err != nil {
			return nil, err
		}
		return &Return{base}, nil
	case ts.acceptKW("STOP"):
		if ts.peek().Kind == INTLIT || ts.peek().Kind == STRINGLIT {
			ts.next()
		}
		if err := ts.expectEOL(); err != nil {
			return nil, err
		}
		return &StopStmt{base}, nil
	case ts.acceptKW("CONTINUE"):
		if err := ts.expectEOL(); err != nil {
			return nil, err
		}
		return &Continue{base}, nil
	case ts.acceptKW("PRINT"):
		return parsePrintTail(base, ts)
	case ts.acceptKW("WRITE"):
		return parseWriteTail(base, ts)
	case ts.peek().Kind == IDENT:
		return parseAssignTail(base, ts)
	}
	return nil, ts.errHere("invalid logical IF body")
}

// parseIfBlock parses the body of a block IF after "IF (cond) THEN".
func (p *parser) parseIfBlock(base StmtBase, cond Expr) (Stmt, error) {
	blk := &IfBlock{StmtBase: base, Cond: cond}
	thenBody, err := p.parseBlock(p.blockEnder)
	if err != nil {
		return nil, err
	}
	blk.Then = thenBody
	for p.headIsElseIf() {
		line := p.current()
		ts := newTokens(line)
		ts.acceptKW("ELSEIF")
		if ts.acceptKW("ELSE") {
			ts.acceptKW("IF")
		}
		if !ts.accept(LPAREN) {
			return nil, ts.errHere("expected '(' after ELSE IF")
		}
		c, err := ts.parseExpr()
		if err != nil {
			return nil, err
		}
		if !ts.accept(RPAREN) || !ts.acceptKW("THEN") {
			return nil, ts.errHere("expected ') THEN' after ELSE IF condition")
		}
		if err := ts.expectEOL(); err != nil {
			return nil, err
		}
		p.advance()
		body, err := p.parseBlock(p.blockEnder)
		if err != nil {
			return nil, err
		}
		blk.Elifs = append(blk.Elifs, ElifArm{Cond: c, Line: line.Num, Body: body})
	}
	if p.headIs("ELSE") && len(p.current().Tokens) == 1 {
		p.advance()
		body, err := p.parseBlock(p.blockEnder)
		if err != nil {
			return nil, err
		}
		blk.Else = body
	}
	if !p.headIs("ENDIF") {
		return nil, errf(base.Line, 1, "IF block starting here has no matching ENDIF")
	}
	p.advance()
	return blk, nil
}

// parseDo parses both DO forms. ts has consumed the DO keyword.
func (p *parser) parseDo(base StmtBase, ts *tokens) (Stmt, error) {
	loop := &DoLoop{StmtBase: base}
	if ts.peek().Kind == INTLIT {
		l, err := ts.expectLabel()
		if err != nil {
			return nil, err
		}
		loop.EndLabel = l
		ts.accept(COMMA) // optional comma: DO 10, I = ...
	}
	v, err := ts.expectIdent()
	if err != nil {
		return nil, err
	}
	loop.Var = v
	if !ts.accept(ASSIGN) {
		return nil, ts.errHere("expected '=' in DO statement")
	}
	if loop.Lo, err = ts.parseExpr(); err != nil {
		return nil, err
	}
	if !ts.accept(COMMA) {
		return nil, ts.errHere("expected ',' after DO initial value")
	}
	if loop.Hi, err = ts.parseExpr(); err != nil {
		return nil, err
	}
	if ts.accept(COMMA) {
		if loop.Step, err = ts.parseExpr(); err != nil {
			return nil, err
		}
	}
	if err := ts.expectEOL(); err != nil {
		return nil, err
	}
	p.advance()

	if loop.EndLabel == 0 {
		// DO ... ENDDO form.
		body, err := p.parseBlock(func() bool { return p.headIs("ENDDO") })
		if err != nil {
			return nil, err
		}
		if !p.headIs("ENDDO") {
			return nil, errf(base.Line, 1, "DO loop starting here has no matching ENDDO")
		}
		p.advance()
		loop.Body = body
		return loop, nil
	}

	// DO label ... form: body ends at the line carrying the label; that
	// statement is part of the body. Nested DO loops may share the
	// terminator ("DO 10 I / DO 10 J / 10 CONTINUE"): the innermost loop
	// consumes the labelled line, and enclosing loops detect completion by
	// looking at the nested loop's EndLabel.
	for {
		if p.atEOF() {
			return nil, errf(base.Line, 1, "DO loop has no statement labelled %d", loop.EndLabel)
		}
		if p.blockEnder() {
			return nil, errf(p.current().Num, 1, "unexpected %s inside DO %d", p.head().Text, loop.EndLabel)
		}
		terminates := p.current().Label == loop.EndLabel
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		loop.Body = append(loop.Body, s)
		if terminates {
			return loop, nil
		}
		if inner, ok := s.(*DoLoop); ok && inner.EndLabel == loop.EndLabel {
			return loop, nil // shared terminator consumed by the inner loop
		}
	}
}

func parseGotoTail(base StmtBase, ts *tokens) (Stmt, error) {
	if ts.accept(LPAREN) {
		cg := &ComputedGoto{StmtBase: base}
		for {
			l, err := ts.expectLabel()
			if err != nil {
				return nil, err
			}
			cg.Targets = append(cg.Targets, l)
			if ts.accept(RPAREN) {
				break
			}
			if !ts.accept(COMMA) {
				return nil, ts.errHere("expected ',' or ')' in computed GOTO")
			}
		}
		ts.accept(COMMA) // optional comma before the index expression
		e, err := ts.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := ts.expectEOL(); err != nil {
			return nil, err
		}
		cg.Expr = e
		return cg, nil
	}
	l, err := ts.expectLabel()
	if err != nil {
		return nil, err
	}
	if err := ts.expectEOL(); err != nil {
		return nil, err
	}
	return &Goto{StmtBase: base, Target: l}, nil
}

func parseCallTail(base StmtBase, ts *tokens) (Stmt, error) {
	name, err := ts.expectIdent()
	if err != nil {
		return nil, err
	}
	call := &CallStmt{StmtBase: base, Name: name}
	if ts.accept(LPAREN) {
		if !ts.accept(RPAREN) {
			for {
				a, err := ts.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if ts.accept(RPAREN) {
					break
				}
				if !ts.accept(COMMA) {
					return nil, ts.errHere("expected ',' or ')' in CALL arguments")
				}
			}
		}
	}
	if err := ts.expectEOL(); err != nil {
		return nil, err
	}
	return call, nil
}

func parsePrintTail(base StmtBase, ts *tokens) (Stmt, error) {
	if !ts.accept(STAR) {
		return nil, ts.errHere("only list-directed PRINT *, ... is supported")
	}
	pr := &Print{StmtBase: base}
	for ts.accept(COMMA) {
		e, err := ts.parseExpr()
		if err != nil {
			return nil, err
		}
		pr.Items = append(pr.Items, e)
	}
	if err := ts.expectEOL(); err != nil {
		return nil, err
	}
	return pr, nil
}

// parseWriteTail handles "WRITE(*,*) items": list-directed output to
// standard output, equivalent to PRINT *, items.
func parseWriteTail(base StmtBase, ts *tokens) (Stmt, error) {
	if !ts.accept(LPAREN) || !ts.accept(STAR) || !ts.accept(COMMA) || !ts.accept(STAR) || !ts.accept(RPAREN) {
		return nil, ts.errHere("only WRITE(*,*) list-directed output is supported")
	}
	pr := &Print{StmtBase: base}
	for {
		if ts.peek().Kind == EOF {
			break
		}
		e, err := ts.parseExpr()
		if err != nil {
			return nil, err
		}
		pr.Items = append(pr.Items, e)
		if !ts.accept(COMMA) {
			break
		}
	}
	if err := ts.expectEOL(); err != nil {
		return nil, err
	}
	return pr, nil
}

func parseAssignTail(base StmtBase, ts *tokens) (Stmt, error) {
	lhs, err := ts.parseDesignator()
	if err != nil {
		return nil, err
	}
	if !ts.accept(ASSIGN) {
		return nil, ts.errHere("expected '=' in assignment")
	}
	rhs, err := ts.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := ts.expectEOL(); err != nil {
		return nil, err
	}
	return &Assign{StmtBase: base, LHS: lhs, RHS: rhs}, nil
}

// ---------------------------------------------------------------------------
// Token-stream helpers and the expression grammar.

type tokens struct {
	toks []Token
	pos  int
	line int
}

func newTokens(l Line) *tokens { return &tokens{toks: l.Tokens, line: l.Num} }

func (ts *tokens) peek() Token {
	if ts.pos >= len(ts.toks) {
		return Token{Kind: EOF, Line: ts.line}
	}
	return ts.toks[ts.pos]
}

func (ts *tokens) next() Token {
	t := ts.peek()
	if ts.pos < len(ts.toks) {
		ts.pos++
	}
	return t
}

func (ts *tokens) accept(k Kind) bool {
	if ts.peek().Kind == k {
		ts.pos++
		return true
	}
	return false
}

func (ts *tokens) acceptKW(kw string) bool {
	t := ts.peek()
	if t.Kind == KWWORD && t.Text == kw {
		ts.pos++
		return true
	}
	return false
}

func (ts *tokens) acceptDotOp(name string) bool {
	t := ts.peek()
	if t.Kind == DOTOP && t.Text == name {
		ts.pos++
		return true
	}
	return false
}

func (ts *tokens) expectIdent() (string, error) {
	t := ts.peek()
	if t.Kind != IDENT {
		return "", ts.errHere("expected identifier, got %v", t)
	}
	ts.pos++
	return t.Text, nil
}

func (ts *tokens) expectLabel() (int, error) {
	t := ts.peek()
	if t.Kind != INTLIT {
		return 0, ts.errHere("expected statement label, got %v", t)
	}
	ts.pos++
	v, err := strconv.Atoi(t.Text)
	if err != nil || v <= 0 {
		return 0, ts.errHere("bad statement label %q", t.Text)
	}
	return v, nil
}

func (ts *tokens) expectEOL() error {
	if t := ts.peek(); t.Kind != EOF {
		return ts.errHere("unexpected %v at end of statement", t)
	}
	return nil
}

// errHere reports an error at the next token: its physical position, or
// column 1 of the statement's first line at the end of the statement.
func (ts *tokens) errHere(format string, args ...any) error {
	t := ts.peek()
	if t.Kind == EOF {
		return errf(ts.line, 1, format, args...)
	}
	return errf(t.Line, t.Col, format, args...)
}

// parseExpr parses the full expression grammar:
//
//	expr   := orE ( .EQV. | .NEQV. orE )*
//	orE    := andE ( .OR. andE )*
//	andE   := notE ( .AND. notE )*
//	notE   := .NOT. notE | rel
//	rel    := arith ( relop arith )?
//	arith  := term ( (+|-) term )*
//	term   := factor ( (*|/) factor )*
//	factor := (+|-)* power
//	power  := primary ( ** factor )?     (right associative)
func (ts *tokens) parseExpr() (Expr, error) {
	l, err := ts.parseOr()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case ts.acceptDotOp("EQV"):
			op = OpEqv
		case ts.acceptDotOp("NEQV"):
			op = OpNeqv
		default:
			return l, nil
		}
		r, err := ts.parseOr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
	}
}

func (ts *tokens) parseOr() (Expr, error) {
	l, err := ts.parseAnd()
	if err != nil {
		return nil, err
	}
	for ts.acceptDotOp("OR") {
		r, err := ts.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (ts *tokens) parseAnd() (Expr, error) {
	l, err := ts.parseNot()
	if err != nil {
		return nil, err
	}
	for ts.acceptDotOp("AND") {
		r, err := ts.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (ts *tokens) parseNot() (Expr, error) {
	if ts.acceptDotOp("NOT") {
		x, err := ts.parseNot()
		if err != nil {
			return nil, err
		}
		return &Un{Op: OpNot, X: x}, nil
	}
	return ts.parseRel()
}

var relOps = map[string]BinOp{
	"LT": OpLT, "LE": OpLE, "GT": OpGT, "GE": OpGE, "EQ": OpEQ, "NE": OpNE,
}

func (ts *tokens) parseRel() (Expr, error) {
	l, err := ts.parseArith()
	if err != nil {
		return nil, err
	}
	if t := ts.peek(); t.Kind == DOTOP {
		if op, ok := relOps[t.Text]; ok {
			ts.pos++
			r, err := ts.parseArith()
			if err != nil {
				return nil, err
			}
			return &Bin{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (ts *tokens) parseArith() (Expr, error) {
	l, err := ts.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case ts.accept(PLUS):
			op = OpAdd
		case ts.accept(MINUS):
			op = OpSub
		default:
			return l, nil
		}
		r, err := ts.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
	}
}

func (ts *tokens) parseTerm() (Expr, error) {
	l, err := ts.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case ts.accept(STAR):
			op = OpMul
		case ts.accept(SLASH):
			op = OpDiv
		default:
			return l, nil
		}
		r, err := ts.parseFactor()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
	}
}

func (ts *tokens) parseFactor() (Expr, error) {
	switch {
	case ts.accept(MINUS):
		x, err := ts.parseFactor()
		if err != nil {
			return nil, err
		}
		return &Un{Op: OpNeg, X: x}, nil
	case ts.accept(PLUS):
		return ts.parseFactor()
	}
	return ts.parsePower()
}

func (ts *tokens) parsePower() (Expr, error) {
	base, err := ts.parsePrimary()
	if err != nil {
		return nil, err
	}
	if ts.accept(POW) {
		// Right associative: A ** B ** C = A ** (B ** C); the exponent may
		// carry a unary sign: A ** -2.
		exp, err := ts.parseFactor()
		if err != nil {
			return nil, err
		}
		return &Bin{Op: OpPow, L: base, R: exp}, nil
	}
	return base, nil
}

func (ts *tokens) parsePrimary() (Expr, error) {
	t := ts.peek()
	switch t.Kind {
	case INTLIT:
		ts.pos++
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, ts.errHere("bad integer literal %q", t.Text)
		}
		return &IntLit{Val: v}, nil
	case REALLIT:
		ts.pos++
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, ts.errHere("bad real literal %q", t.Text)
		}
		return &RealLit{Val: v}, nil
	case STRINGLIT:
		ts.pos++
		return &StrLit{Val: t.Text}, nil
	case DOTOP:
		switch t.Text {
		case "TRUE":
			ts.pos++
			return &LogLit{Val: true}, nil
		case "FALSE":
			ts.pos++
			return &LogLit{Val: false}, nil
		}
		return nil, ts.errHere("unexpected operator %v", t)
	case LPAREN:
		ts.pos++
		e, err := ts.parseExpr()
		if err != nil {
			return nil, err
		}
		if !ts.accept(RPAREN) {
			return nil, ts.errHere("expected ')'")
		}
		return e, nil
	case IDENT:
		return ts.parseDesignator()
	case KWWORD:
		// The type names INTEGER/REAL double as conversion intrinsics;
		// REAL(X) in an expression is the conversion, not a declaration.
		if t.Text == "REAL" || t.Text == "INTEGER" {
			ts.pos++
			if !ts.accept(LPAREN) {
				return nil, ts.errHere("expected '(' after %s in expression", t.Text)
			}
			arg, err := ts.parseExpr()
			if err != nil {
				return nil, err
			}
			if !ts.accept(RPAREN) {
				return nil, ts.errHere("expected ')'")
			}
			name := "REAL"
			if t.Text == "INTEGER" {
				name = "INT"
			}
			return &Intrinsic{Name: name, Args: []Expr{arg}}, nil
		}
	}
	return nil, ts.errHere("unexpected %v in expression", t)
}

// parseDesignator parses NAME or NAME(args). Intrinsic names become
// Intrinsic calls; everything else becomes Var/Index, with sema deciding
// whether an Index is legal.
func (ts *tokens) parseDesignator() (Expr, error) {
	t := ts.peek()
	if t.Kind != IDENT {
		return nil, ts.errHere("expected identifier, got %v", t)
	}
	ts.pos++
	name := t.Text
	if !ts.accept(LPAREN) {
		return &Var{Name: name}, nil
	}
	var args []Expr
	if !ts.accept(RPAREN) {
		for {
			a, err := ts.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if ts.accept(RPAREN) {
				break
			}
			if !ts.accept(COMMA) {
				return nil, ts.errHere("expected ',' or ')'")
			}
		}
	}
	if _, ok := Intrinsics[name]; ok {
		return &Intrinsic{Name: name, Args: args}, nil
	}
	return &Index{Name: name, Subs: args}, nil
}
