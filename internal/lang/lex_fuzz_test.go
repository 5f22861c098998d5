package lang

import (
	"strings"
	"testing"
)

// FuzzLex checks the one-pass scanner against the line-at-a-time lexer it
// replaced (lex_oracle_test.go). Both must accept or reject the same
// sources and agree on every logical line's label and number and on every
// token's kind and text. On sources without a continuation line they must
// also agree on every position and error message; on continued statements
// the scanner reports physical positions, which checkPositions verifies
// against the source instead.
func FuzzLex(f *testing.F) {
	f.Add("      PROGRAM T\n      X = 1.0\n      END\n")
	f.Add("      X = 1 +   &\n          2 + &\n     &    3\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return
		}
		want, werr := oracleLex(src)
		got, gerr := Lex(src)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("oracle error %v, scanner error %v\n%q", werr, gerr, src)
		}
		exact := !strings.Contains(src, "&")
		if werr != nil {
			if exact && werr.Error() != gerr.Error() {
				t.Fatalf("oracle error %q, scanner error %q\n%q", werr, gerr, src)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%d logical lines, oracle %d\n%q", len(got), len(want), src)
		}
		for i, w := range want {
			g := got[i]
			if g.Label != w.Label || g.Num != w.Num || len(g.Tokens) != len(w.Tokens) {
				t.Fatalf("line %d: label %d num %d %d tokens, oracle label %d num %d %d tokens\n%q",
					i, g.Label, g.Num, len(g.Tokens), w.Label, w.Num, len(w.Tokens), src)
			}
			for j, wt := range w.Tokens {
				gt := g.Tokens[j]
				if gt.Kind != wt.Kind || gt.Text != wt.Text || exact && (gt.Line != wt.Line || gt.Col != wt.Col) {
					t.Fatalf("line %d token %d: %v at %d:%d, oracle %v at %d:%d\n%q",
						i, j, gt, gt.Line, gt.Col, wt, wt.Line, wt.Col, src)
				}
			}
		}
		checkPositions(t, src, got)
	})
}

// checkPositions verifies that every token's line and column point at the
// source character the token starts with.
func checkPositions(t *testing.T, src string, lines []Line) {
	t.Helper()
	phys := strings.Split(src, "\n")
	for _, l := range lines {
		for _, tok := range l.Tokens {
			if tok.Line < 1 || tok.Line > len(phys) || tok.Col < 1 || tok.Col > len(phys[tok.Line-1]) {
				t.Fatalf("%v at %d:%d is outside the source\n%q", tok, tok.Line, tok.Col, src)
			}
			at := phys[tok.Line-1][tok.Col-1:]
			var ok bool
			switch tok.Kind {
			case IDENT, INTLIT:
				ok = strings.EqualFold(at[:min(len(at), len(tok.Text))], tok.Text)
			case KWWORD, REALLIT:
				ok = strings.ToUpper(at[:1]) == tok.Text[:1]
			case DOTOP:
				ok = at[0] == '.'
			case STRINGLIT:
				ok = at[0] == '\'' || at[0] == '"'
			default:
				ok = strings.HasPrefix(at, map[Kind]string{LPAREN: "(", RPAREN: ")", COMMA: ",", ASSIGN: "=",
					PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", POW: "**", COLON: ":"}[tok.Kind])
			}
			if !ok {
				t.Fatalf("%v at %d:%d, but the source there reads %q\n%q", tok, tok.Line, tok.Col, at, src)
			}
		}
	}
}

// TestContinuedStatementPositions pins diagnostics inside continued
// statements to the physical line and column of the offending character,
// for both continuation forms, while lines without continuation keep
// their positions.
func TestContinuedStatementPositions(t *testing.T) {
	const head = "      PROGRAM P\n      REAL X\n"
	for _, c := range []struct{ name, body, want string }{
		{"trailing &", "      X = 1 +   &\n          2 # 3\n", "line 4:13: unexpected character '#'"},
		{"leading &", "      X = 1 +\n     &    2 # 3\n", "line 4:13: unexpected character '#'"},
		{"chained &", "      X = 1 + &\n     &    2 + &\n     &    3 # 4\n", "line 5:13: unexpected character '#'"},
		{"error on the first line", "      X = 1 # &\n          2\n", "line 3:13: unexpected character '#'"},
		{"parse error on a continuation line", "      X = 1 + &\n          ) + 2\n", "line 4:11: "},
		{"unterminated string", "      PRINT *, 'A &\n     & B\n", "line 3:16: unterminated string literal"},
		{"no continuation", "      X = 1 # 3\n", "line 3:13: unexpected character '#'"},
	} {
		_, err := Parse(head + c.body + "      END\n")
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	lines := lexOne(t, "      X = 1 + &\n     &    2\n")
	toks := lines[0].Tokens
	if last := toks[len(toks)-1]; last.Line != 2 || last.Col != 11 {
		t.Errorf("continued token at %d:%d, want 2:11", last.Line, last.Col)
	}
	if toks[0].Line != 1 || toks[0].Col != 7 {
		t.Errorf("first token at %d:%d, want 1:7", toks[0].Line, toks[0].Col)
	}
}

// TestLexLineTokensAreCapped checks that the lines' tokens, which share
// one slab, are capped: appending to one line must not overwrite the next.
func TestLexLineTokensAreCapped(t *testing.T) {
	lines := lexOne(t, "      X = 1\n      Y = 2\n")
	_ = append(lines[0].Tokens, Token{Kind: EOF})
	if got := lines[1].Tokens[0]; got.Kind != IDENT || got.Text != "Y" {
		t.Fatalf("appending to line 1 overwrote line 2's first token: %v", got)
	}
}
