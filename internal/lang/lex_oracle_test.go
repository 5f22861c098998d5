package lang

// This file keeps the line-at-a-time lexer that the one-pass scanner in
// token.go replaced, verbatim but for its names, as the test oracle of
// FuzzLex: it splits the source into physical lines, joins continuation
// lines into one string, tokenizes each logical line into its own slice
// and then fuses the two-word spellings in a second copy. Positions on a
// continued statement are those of the joined string, which is why FuzzLex
// compares columns only on sources without continuations.

import (
	"strings"
	"unicode"
)

// oracleKeywords are the reserved statement words of the subset.
var oracleKeywords = map[string]bool{
	"PROGRAM": true, "SUBROUTINE": true, "INTEGER": true, "REAL": true,
	"LOGICAL": true, "PARAMETER": true, "DIMENSION": true,
	"IF": true, "THEN": true, "ELSE": true, "ELSEIF": true, "ENDIF": true,
	"DO": true, "ENDDO": true, "CONTINUE": true, "GOTO": true, "CALL": true,
	"RETURN": true, "STOP": true, "END": true, "PRINT": true, "WRITE": true,
}

// oracleLex splits src into logical lines of tokens. Comment lines (first
// non-blank character 'C', 'c' or '*' in column one, or '!' anywhere) are
// stripped; a trailing '&' joins the next physical line.
func oracleLex(src string) ([]Line, error) {
	physical := strings.Split(src, "\n")
	var logical []struct {
		text string
		num  int
	}
	for i := 0; i < len(physical); i++ {
		text := physical[i]
		num := i + 1
		if oracleIsCommentLine(text) {
			continue
		}
		if idx := strings.IndexByte(text, '!'); idx >= 0 && !oracleInString(text, idx) {
			text = text[:idx]
		}
		// Continuations: a trailing '&' pulls in the next line, and a line
		// whose first non-blank character is '&' (the fixed-form column-6
		// style) continues the previous one.
		for i+1 < len(physical) {
			next := physical[i+1]
			if idx := strings.IndexByte(next, '!'); idx >= 0 && !oracleInString(next, idx) {
				next = next[:idx]
			}
			trimmedNext := strings.TrimSpace(next)
			switch {
			case strings.HasSuffix(strings.TrimSpace(text), "&"):
				t := strings.TrimSpace(text)
				text = t[:len(t)-1] + " " + strings.TrimPrefix(trimmedNext, "&")
				i++
			case strings.HasPrefix(trimmedNext, "&"):
				text = strings.TrimSpace(text) + " " + strings.TrimSpace(trimmedNext[1:])
				i++
			default:
				goto joined
			}
		}
	joined:
		if strings.TrimSpace(text) == "" {
			continue
		}
		logical = append(logical, struct {
			text string
			num  int
		}{text, num})
	}

	var lines []Line
	for _, ll := range logical {
		toks, err := oracleLexLine(ll.text, ll.num)
		if err != nil {
			return nil, err
		}
		if len(toks) == 0 {
			continue
		}
		toks = oracleFuseSpellings(toks)
		line := Line{Num: ll.num, Tokens: toks}
		// A leading integer is a statement label.
		if toks[0].Kind == INTLIT && len(toks) > 1 {
			label := 0
			for _, c := range toks[0].Text {
				label = label*10 + int(c-'0')
			}
			if label == 0 {
				return nil, errf(ll.num, toks[0].Col, "statement label 0 is not allowed")
			}
			line.Label = label
			line.Tokens = toks[1:]
		}
		lines = append(lines, line)
	}
	return lines, nil
}

// oracleFuseSpellings merges the two-word spellings "END IF", "END DO",
// "GO TO" (and "ELSE IF" is handled by the parser directly) into their
// one-word keyword equivalents.
func oracleFuseSpellings(toks []Token) []Token {
	var out []Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if i+1 < len(toks) {
			n := toks[i+1]
			switch {
			case t.Kind == KWWORD && t.Text == "END" && n.Kind == KWWORD && (n.Text == "IF" || n.Text == "DO"):
				out = append(out, Token{Kind: KWWORD, Text: "END" + n.Text, Line: t.Line, Col: t.Col})
				i++
				continue
			case t.Kind == IDENT && t.Text == "GO" && n.Kind == IDENT && n.Text == "TO":
				out = append(out, Token{Kind: KWWORD, Text: "GOTO", Line: t.Line, Col: t.Col})
				i++
				continue
			}
		}
		out = append(out, t)
	}
	return out
}

func oracleIsCommentLine(text string) bool {
	trimmed := strings.TrimLeft(text, " \t")
	if trimmed == "" {
		return false
	}
	// Classic fixed-form comment marker in column one.
	if text[0] == 'C' || text[0] == 'c' || text[0] == '*' {
		// Only treat it as a comment if it doesn't look like a statement
		// (e.g. "CALL FOO" starts with C). A comment marker is followed by
		// whitespace or the line is pure commentary.
		rest := text[1:]
		if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
			// "C " could still be an assignment "C = 1"; check for '='
			// before any paren at the top level.
			if !oracleLooksLikeStatement(rest) {
				return true
			}
		}
	}
	return strings.HasPrefix(trimmed, "!")
}

// oracleLooksLikeStatement reports whether the text after a potential comment
// marker parses as the tail of a statement starting with that letter
// (assignment "C = ..." or "C(I) = ..."). Everything else is commentary.
func oracleLooksLikeStatement(rest string) bool {
	s := strings.TrimSpace(rest)
	if s == "" {
		return false
	}
	if s[0] == '=' && (len(s) < 2 || s[1] != '=') {
		return true
	}
	if s[0] == '(' {
		depth := 0
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '(':
				depth++
			case ')':
				depth--
				if depth == 0 {
					tail := strings.TrimSpace(s[i+1:])
					return strings.HasPrefix(tail, "=") && !strings.HasPrefix(tail, "==")
				}
			}
		}
	}
	return false
}

func oracleInString(text string, idx int) bool {
	quote := byte(0)
	for i := 0; i < idx; i++ {
		c := text[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		if c == '\'' || c == '"' {
			quote = c
		}
	}
	return quote != 0
}

// oracleLexLine tokenizes one logical line.
func oracleLexLine(text string, lineNum int) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(text)
	for i < n {
		c := text[i]
		col := i + 1
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c >= '0' && c <= '9' || c == '.' && i+1 < n && text[i+1] >= '0' && text[i+1] <= '9':
			tok, next, err := oracleLexNumber(text, i, lineNum)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			i = next
		case c == '.':
			// Dotted operator: .LT. .AND. .TRUE. etc.
			j := i + 1
			for j < n && oracleIsAlpha(text[j]) {
				j++
			}
			if j >= n || text[j] != '.' {
				return nil, errf(lineNum, col, "malformed dotted operator near %q", text[i:oracleMin(i+6, n)])
			}
			name := strings.ToUpper(text[i+1 : j])
			if !oracleValidDotOp(name) {
				return nil, errf(lineNum, col, "unknown operator .%s.", name)
			}
			toks = append(toks, Token{Kind: DOTOP, Text: name, Line: lineNum, Col: col})
			i = j + 1
		case oracleIsAlpha(c):
			j := i
			for j < n && (oracleIsAlpha(text[j]) || text[j] >= '0' && text[j] <= '9' || text[j] == '_') {
				j++
			}
			word := strings.ToUpper(text[i:j])
			kind := IDENT
			if oracleKeywords[word] {
				kind = KWWORD
			}
			toks = append(toks, Token{Kind: kind, Text: word, Line: lineNum, Col: col})
			i = j
		case c == '\'' || c == '"':
			j := i + 1
			for j < n && text[j] != c {
				j++
			}
			if j >= n {
				return nil, errf(lineNum, col, "unterminated string literal")
			}
			toks = append(toks, Token{Kind: STRINGLIT, Text: text[i+1 : j], Line: lineNum, Col: col})
			i = j + 1
		case c == '*':
			if i+1 < n && text[i+1] == '*' {
				toks = append(toks, Token{Kind: POW, Line: lineNum, Col: col})
				i += 2
			} else {
				toks = append(toks, Token{Kind: STAR, Line: lineNum, Col: col})
				i++
			}
		case c == '(':
			toks = append(toks, Token{Kind: LPAREN, Line: lineNum, Col: col})
			i++
		case c == ')':
			toks = append(toks, Token{Kind: RPAREN, Line: lineNum, Col: col})
			i++
		case c == ',':
			toks = append(toks, Token{Kind: COMMA, Line: lineNum, Col: col})
			i++
		case c == '=':
			toks = append(toks, Token{Kind: ASSIGN, Line: lineNum, Col: col})
			i++
		case c == '+':
			toks = append(toks, Token{Kind: PLUS, Line: lineNum, Col: col})
			i++
		case c == '-':
			toks = append(toks, Token{Kind: MINUS, Line: lineNum, Col: col})
			i++
		case c == '/':
			toks = append(toks, Token{Kind: SLASH, Line: lineNum, Col: col})
			i++
		case c == ':':
			toks = append(toks, Token{Kind: COLON, Line: lineNum, Col: col})
			i++
		default:
			return nil, errf(lineNum, col, "unexpected character %q", rune(c))
		}
	}
	return toks, nil
}

// oracleLexNumber scans an integer or real literal starting at i. Fortran
// makes "1.LT.2" ambiguous (is it "1. LT . 2"?); like real compilers we
// resolve it by treating ".XX." following digits as an operator when XX is
// alphabetic.
func oracleLexNumber(text string, i, lineNum int) (Token, int, error) {
	col := i + 1
	n := len(text)
	j := i
	for j < n && text[j] >= '0' && text[j] <= '9' {
		j++
	}
	isReal := false
	if j < n && text[j] == '.' {
		// Peek: digits '.' alpha ... '.' means a dotted operator follows.
		k := j + 1
		for k < n && oracleIsAlpha(text[k]) {
			k++
		}
		opLike := k > j+1 && k < n && text[k] == '.' && oracleValidDotOp(strings.ToUpper(text[j+1:k]))
		if !opLike {
			isReal = true
			j++
			for j < n && text[j] >= '0' && text[j] <= '9' {
				j++
			}
		}
	}
	// Exponent: E or D followed by optional sign and digits.
	if j < n && (text[j] == 'e' || text[j] == 'E' || text[j] == 'd' || text[j] == 'D') {
		k := j + 1
		if k < n && (text[k] == '+' || text[k] == '-') {
			k++
		}
		if k < n && text[k] >= '0' && text[k] <= '9' {
			isReal = true
			for k < n && text[k] >= '0' && text[k] <= '9' {
				k++
			}
			j = k
		}
	}
	lit := text[i:j]
	if isReal {
		// Normalize D exponents to E for strconv.
		lit = strings.Map(func(r rune) rune {
			if r == 'd' || r == 'D' {
				return 'E'
			}
			return r
		}, lit)
		return Token{Kind: REALLIT, Text: lit, Line: lineNum, Col: col}, j, nil
	}
	return Token{Kind: INTLIT, Text: lit, Line: lineNum, Col: col}, j, nil
}

func oracleValidDotOp(name string) bool {
	switch name {
	case "LT", "LE", "GT", "GE", "EQ", "NE", "AND", "OR", "NOT", "EQV", "NEQV", "TRUE", "FALSE":
		return true
	}
	return false
}

func oracleIsAlpha(c byte) bool {
	return unicode.IsLetter(rune(c)) && c < 128
}

func oracleMin(a, b int) int {
	if a < b {
		return a
	}
	return b
}
