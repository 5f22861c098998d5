// Package lang implements the frontend for the Fortran-77-like subset used
// as the substrate language of this reproduction: a lexer, a recursive
// descent parser, an AST, and semantic analysis.
//
// The paper's framework analyzes Fortran programs (its running example and
// both Table 1 benchmarks are Fortran); this subset covers the control flow
// constructs the framework cares about — DO loops, block and logical and
// arithmetic IFs, GOTO and computed GOTO, CALL/RETURN — plus enough of the
// expression and array language to express the Livermore Loops and a
// SIMPLE-like CFD kernel.
//
// Deviations from Fortran 77, chosen for implementation clarity and noted
// here once: source is free-form, keywords are reserved words, and
// CHARACTER data exists only as literals inside PRINT. There is no
// column-6 continuation: a trailing '&' continues a statement on the next
// line, and a line whose first non-blank character is '&' continues the
// previous one. Tokens and diagnostics carry the physical line and column
// they come from, on continuation lines too.
package lang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind classifies a token.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INTLIT
	REALLIT
	STRINGLIT
	LPAREN
	RPAREN
	COMMA
	ASSIGN // =
	PLUS
	MINUS
	STAR
	SLASH
	POW    // **
	DOTOP  // .LT. .GE. .AND. .NOT. .TRUE. ... — Text holds the upper-cased name
	COLON  // : (array slices are not supported; kept for better errors)
	KWWORD // reserved keyword; Text holds the upper-cased spelling
)

var kindNames = map[Kind]string{
	EOF: "end of line", IDENT: "identifier", INTLIT: "integer", REALLIT: "real",
	STRINGLIT: "string", LPAREN: "'('", RPAREN: "')'", COMMA: "','", ASSIGN: "'='",
	PLUS: "'+'", MINUS: "'-'", STAR: "'*'", SLASH: "'/'", POW: "'**'",
	DOTOP: "dotted operator", COLON: "':'", KWWORD: "keyword",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Token is one lexical token. Text is upper-cased for identifiers, keywords
// and dotted operators; string literals keep their original spelling.
type Token struct {
	Kind Kind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Text != "" {
		return fmt.Sprintf("%v %q", t.Kind, t.Text)
	}
	return t.Kind.String()
}

// isKeyword reports whether an upper-cased word is one of the reserved
// statement words of the subset.
func isKeyword(word string) bool {
	switch word {
	case "PROGRAM", "SUBROUTINE", "INTEGER", "REAL", "LOGICAL", "PARAMETER", "DIMENSION",
		"IF", "THEN", "ELSE", "ELSEIF", "ENDIF", "DO", "ENDDO", "CONTINUE", "GOTO", "CALL",
		"RETURN", "STOP", "END", "PRINT", "WRITE":
		return true
	}
	return false
}

// Line is one logical source line: an optional numeric statement label and
// its tokens.
type Line struct {
	Label  int // 0 = unlabelled
	Tokens []Token
	Num    int // 1-based physical line number of the first physical line
}

// A SyntaxError reports a problem with a position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
}

func errf(line, col int, format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// Lex splits src into logical lines of tokens. Comment lines (first
// non-blank character 'C', 'c' or '*' in column one, or '!' anywhere) are
// stripped; a trailing '&' joins the next physical line, and so does a
// leading '&' on the next line.
//
// Lex is one scanner pass over src. Every token carries the physical line
// and column it was read from, on continuation lines too. All tokens go
// into one slab that every Line.Tokens sub-slices, and token text is a
// substring of src wherever upper-casing leaves it unchanged.
func Lex(src string) ([]Line, error) {
	// Programs run 3 to 6 source bytes per token; a denser one grows the
	// slab once.
	s := scanner{src: src, toks: make([]Token, 0, len(src)/5+8)}
	lines := make([]Line, 0, strings.Count(src, "\n")+1)
	for off, num := 0, 1; off >= 0; {
		raw, next := s.physical(off)
		if isCommentLine(raw) {
			off, num = next, num+1
			continue
		}
		first := num
		s.segs = append(s.segs[:0], segment{start: off, end: off + len(stripComment(raw)), num: num, lineStart: off})
		var ok bool
		if off, num, ok = s.join(next, num+1); !ok {
			continue
		}
		base := len(s.toks)
		if err := s.scanLine(base); err != nil {
			return nil, err
		}
		toks := s.toks[base:]
		if len(toks) == 0 {
			continue
		}
		line := Line{Num: first}
		// A leading integer is a statement label; it leaves the slab so
		// that the lines' tokens tile it.
		if toks[0].Kind == INTLIT && len(toks) > 1 {
			label := 0
			for _, c := range toks[0].Text {
				label = label*10 + int(c-'0')
			}
			if label == 0 {
				return nil, errf(toks[0].Line, toks[0].Col, "statement label 0 is not allowed")
			}
			line.Label = label
			s.toks = append(s.toks[:base], toks[1:]...)
		}
		line.Tokens = s.toks[base:]
		lines = append(lines, line)
	}
	// The slab may have moved while it grew: re-slice every line from its
	// final backing array, capped so that appending to one line's tokens
	// cannot overwrite the next line's.
	k := 0
	for i := range lines {
		n := len(lines[i].Tokens)
		lines[i].Tokens = s.toks[k : k+n : k+n]
		k += n
	}
	return lines, nil
}

// segment is the part of one physical line that a logical line takes in:
// src[start:end], on physical line num, whose first byte is at lineStart.
// Continued statements are lexed segment by segment, with the segment
// boundary acting as the blank that joins continued lines.
type segment struct {
	start, end     int
	num, lineStart int
}

// scanner is Lex's state: the source, the token slab and the segments of
// the logical line being lexed (reused from line to line).
type scanner struct {
	src  string
	toks []Token
	segs []segment
}

// join extends the logical line in s.segs with the continuation lines
// from offset off (physical line num) on. It returns where the next
// logical line starts and whether this one is non-blank.
func (s *scanner) join(off, num int) (int, int, bool) {
	for {
		i, j, tlo, thi, ok := s.trimmed()
		if off < 0 {
			return off, num, ok
		}
		raw, next := s.physical(off)
		text := stripComment(raw)
		lo, hi := trimSpace(text)
		switch {
		case ok && s.src[thi-1] == '&':
			// A trailing '&' pulls in the next line.
			s.trim(i, j, tlo, thi-1)
			if lo < hi && text[lo] == '&' {
				lo++
			}
		case lo < hi && text[lo] == '&':
			// A line whose first non-blank character is '&' (the
			// fixed-form column-6 style) continues the previous one.
			s.trim(i, j, tlo, thi)
			l, h := trimSpace(text[lo+1 : hi])
			lo, hi = lo+1+l, lo+1+h
		default:
			return off, num, ok
		}
		s.segs = append(s.segs, segment{start: off + lo, end: off + hi, num: num, lineStart: off})
		off, num = next, num+1
	}
}

// physical returns the physical line starting at off, without its '\n',
// and the offset of the following line (-1 after the last).
func (s *scanner) physical(off int) (string, int) {
	rest := s.src[off:]
	if i := strings.IndexByte(rest, '\n'); i >= 0 {
		return rest[:i], off + i + 1
	}
	return rest, -1
}

// stripComment cuts text at a '!' that starts a trailing comment. Only the
// first '!' counts: if it sits inside a string, the line keeps it.
func stripComment(text string) string {
	if idx := strings.IndexByte(text, '!'); idx >= 0 && !inString(text, idx) {
		return text[:idx]
	}
	return text
}

// trimSpace returns the bounds of strings.TrimSpace(s) within s.
func trimSpace(s string) (lo, hi int) {
	lo, hi = 0, len(s)
	for lo < hi && asciiSpace(s[lo]) {
		lo++
	}
	for hi > lo && asciiSpace(s[hi-1]) {
		hi--
	}
	if lo < hi && (s[lo] >= utf8.RuneSelf || s[hi-1] >= utf8.RuneSelf) {
		lo = hi - len(strings.TrimLeftFunc(s[lo:hi], unicode.IsSpace))
		hi = lo + len(strings.TrimRightFunc(s[lo:hi], unicode.IsSpace))
	}
	return lo, hi
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// trimmed finds the extent of the logical line so far once surrounding
// white space is trimmed: segments i through j, starting at src offset lo
// in segment i and ending at hi in segment j. ok is false if the line is
// blank.
func (s *scanner) trimmed() (i, j, lo, hi int, ok bool) {
	for i = 0; i < len(s.segs); i++ {
		g := s.segs[i]
		if l, h := trimSpace(s.src[g.start:g.end]); l < h {
			lo = g.start + l
			break
		}
	}
	if i == len(s.segs) {
		return 0, -1, 0, 0, false
	}
	for j = len(s.segs) - 1; ; j-- {
		g := s.segs[j]
		if l, h := trimSpace(s.src[g.start:g.end]); l < h {
			return i, j, lo, g.start + h, true
		}
	}
}

// trim cuts the logical line to segments i through j, from src offset lo
// to hi. A blank line (i > j) becomes empty.
func (s *scanner) trim(i, j, lo, hi int) {
	if i > j {
		s.segs = s.segs[:0]
		return
	}
	n := copy(s.segs, s.segs[i:j+1])
	s.segs = s.segs[:n]
	s.segs[0].start = lo
	s.segs[n-1].end = hi
}

// scanLine lexes the current logical line's segments onto the slab; the
// line's tokens start at base.
func (s *scanner) scanLine(base int) error {
	src := s.src
	for k := 0; k < len(s.segs); k++ {
		g := s.segs[k]
		for i := g.start; i < g.end; {
			c := src[i]
			line, col := g.num, i-g.lineStart+1
			switch {
			case c == ' ' || c == '\t' || c == '\r':
				i++
			case c >= '0' && c <= '9' || c == '.' && i+1 < g.end && isDigit(src[i+1]):
				kind, lit, next := scanNumber(src, i, g.end)
				s.emit(Token{Kind: kind, Text: lit, Line: line, Col: col}, base)
				i = next
			case c == '.':
				// Dotted operator: .LT. .AND. .TRUE. etc.
				j := i + 1
				for j < g.end && isAlpha(src[j]) {
					j++
				}
				if j >= g.end || src[j] != '.' {
					return errf(line, col, "malformed dotted operator near %q", src[i:min(i+6, g.end)])
				}
				name := strings.ToUpper(src[i+1 : j])
				if !validDotOp(name) {
					return errf(line, col, "unknown operator .%s.", name)
				}
				s.emit(Token{Kind: DOTOP, Text: name, Line: line, Col: col}, base)
				i = j + 1
			case isAlpha(c):
				j := i + 1
				for j < g.end && (isAlpha(src[j]) || isDigit(src[j]) || src[j] == '_') {
					j++
				}
				word := strings.ToUpper(src[i:j])
				kind := IDENT
				if isKeyword(word) {
					kind = KWWORD
				}
				s.emit(Token{Kind: kind, Text: word, Line: line, Col: col}, base)
				i = j
			case c == '\'' || c == '"':
				if j := strings.IndexByte(src[i+1:g.end], c); j >= 0 {
					s.emit(Token{Kind: STRINGLIT, Text: src[i+1 : i+1+j], Line: line, Col: col}, base)
					i += j + 2
					break
				}
				text, k2, next, ok := s.continuedString(k, i)
				if !ok {
					return errf(line, col, "unterminated string literal")
				}
				s.emit(Token{Kind: STRINGLIT, Text: text, Line: line, Col: col}, base)
				k, g, i = k2, s.segs[k2], next
			default:
				kind, width := punct(src, i, g.end)
				if width == 0 {
					return errf(line, col, "unexpected character %q", rune(c))
				}
				s.emit(Token{Kind: kind, Line: line, Col: col}, base)
				i += width
			}
		}
	}
	return nil
}

// continuedString reads a string literal that opens at src[i] in segment k
// and runs past the segment's end. Its text joins the pieces with the
// blank that joins continued lines; the literal ends at the first matching
// quote of a later segment, and scanning resumes after it at (k2, next).
func (s *scanner) continuedString(k, i int) (text string, k2, next int, ok bool) {
	quote := s.src[i]
	var b strings.Builder
	b.WriteString(s.src[i+1 : s.segs[k].end])
	for k2 = k + 1; k2 < len(s.segs); k2++ {
		g := s.segs[k2]
		b.WriteByte(' ')
		if j := strings.IndexByte(s.src[g.start:g.end], quote); j >= 0 {
			b.WriteString(s.src[g.start : g.start+j])
			return b.String(), k2, g.start + j + 1, true
		}
		b.WriteString(s.src[g.start:g.end])
	}
	return "", 0, 0, false
}

// emit appends t to the slab, fusing the two-word spellings "END IF",
// "END DO" and "GO TO" into one keyword token in place ("ELSE IF" is left
// to the parser). base is where the current line's tokens start.
func (s *scanner) emit(t Token, base int) {
	if n := len(s.toks); n > base {
		p := &s.toks[n-1]
		switch {
		case t.Kind == KWWORD && p.Kind == KWWORD && p.Text == "END" && t.Text == "IF":
			p.Text = "ENDIF"
			return
		case t.Kind == KWWORD && p.Kind == KWWORD && p.Text == "END" && t.Text == "DO":
			p.Text = "ENDDO"
			return
		case t.Kind == IDENT && p.Kind == IDENT && p.Text == "GO" && t.Text == "TO":
			p.Kind, p.Text = KWWORD, "GOTO"
			return
		}
	}
	s.toks = append(s.toks, t)
}

// punct returns the kind and width of the operator or punctuation token at
// src[i], or width 0 if no token starts there.
func punct(src string, i, end int) (Kind, int) {
	switch src[i] {
	case '*':
		if i+1 < end && src[i+1] == '*' {
			return POW, 2
		}
		return STAR, 1
	case '(':
		return LPAREN, 1
	case ')':
		return RPAREN, 1
	case ',':
		return COMMA, 1
	case '=':
		return ASSIGN, 1
	case '+':
		return PLUS, 1
	case '-':
		return MINUS, 1
	case '/':
		return SLASH, 1
	case ':':
		return COLON, 1
	}
	return EOF, 0
}

func isCommentLine(text string) bool {
	i := 0
	for i < len(text) && (text[i] == ' ' || text[i] == '\t') {
		i++
	}
	if i == len(text) {
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
			if !looksLikeStatement(rest) {
				return true
			}
		}
	}
	return text[i] == '!'
}

// looksLikeStatement reports whether the text after a potential comment
// marker parses as the tail of a statement starting with that letter
// (assignment "C = ..." or "C(I) = ..."). Everything else is commentary.
func looksLikeStatement(rest string) bool {
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

func inString(text string, idx int) bool {
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

// scanNumber scans an integer or real literal starting at src[i], ending
// by end at the latest, and returns its kind, text and the offset after
// it. Fortran makes "1.LT.2" ambiguous (is it "1. LT . 2"?); like real
// compilers we resolve it by treating ".XX." following digits as an
// operator when XX is alphabetic.
func scanNumber(src string, i, end int) (Kind, string, int) {
	j := i
	for j < end && isDigit(src[j]) {
		j++
	}
	isReal := false
	if j < end && src[j] == '.' {
		// Peek: digits '.' alpha ... '.' means a dotted operator follows.
		k := j + 1
		for k < end && isAlpha(src[k]) {
			k++
		}
		opLike := k > j+1 && k < end && src[k] == '.' && validDotOp(strings.ToUpper(src[j+1:k]))
		if !opLike {
			isReal = true
			j++
			for j < end && isDigit(src[j]) {
				j++
			}
		}
	}
	// Exponent: E or D followed by optional sign and digits.
	if j < end && (src[j] == 'e' || src[j] == 'E' || src[j] == 'd' || src[j] == 'D') {
		k := j + 1
		if k < end && (src[k] == '+' || src[k] == '-') {
			k++
		}
		if k < end && isDigit(src[k]) {
			isReal = true
			for k < end && isDigit(src[k]) {
				k++
			}
			j = k
		}
	}
	lit := src[i:j]
	if !isReal {
		return INTLIT, lit, j
	}
	// Normalize D exponents to E for strconv.
	if d := strings.IndexAny(lit, "dD"); d >= 0 {
		lit = lit[:d] + "E" + lit[d+1:]
	}
	return REALLIT, lit, j
}

func validDotOp(name string) bool {
	switch name {
	case "LT", "LE", "GT", "GE", "EQ", "NE", "AND", "OR", "NOT", "EQV", "NEQV", "TRUE", "FALSE":
		return true
	}
	return false
}

func isAlpha(c byte) bool { return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
