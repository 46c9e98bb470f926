// Package minijs implements a lexer, parser, bytecode compiler and VM for a
// JavaScript subset, plus the tree-walking reference interpreter the VM is
// tested against. It is the scripting engine of the emulated
// browser: ad creatives in the simulated web carry scripts in this dialect,
// and the honeyclient (the Wepawet substitute) re-executes them in an
// instrumented environment exactly like the paper's oracle executed real ad
// JavaScript.
//
// The subset covers what ad scripts (benign and malicious) actually use:
// variables, functions and closures, objects and arrays, property access and
// assignment (including host-object traps so `top.location = ...` can be
// observed), control flow, string/array/Math builtins, eval for obfuscated
// payloads, and setTimeout. Execution is metered by a step budget so that
// adversarial scripts cannot hang the crawler.
package minijs

import (
	"fmt"
	"strings"
)

// TokKind classifies lexical tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokPunct // operators and punctuation
	TokRegex // regular-expression literal: Text is the pattern, Str the flags
)

// Token is one lexical token with its source position (for error messages).
type Token struct {
	Kind TokKind
	Text string
	Num  float64 // valid when Kind == TokNumber
	Str  string  // decoded value when Kind == TokString; flags when TokRegex
	Line int
	Col  int
	// NewlineBefore marks tokens preceded by a line terminator. The parser
	// consults it for JavaScript's restricted productions: `return\nexpr`
	// terminates the return, and a newline suppresses postfix ++/--.
	NewlineBefore bool
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("string %q", t.Str)
	case TokRegex:
		return fmt.Sprintf("regex /%s/%s", t.Text, t.Str)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

var keywords = map[string]bool{
	"var": true, "function": true, "return": true, "if": true, "else": true,
	"for": true, "while": true, "do": true, "break": true, "continue": true,
	"true": true, "false": true, "null": true, "undefined": true,
	"new": true, "typeof": true, "delete": true, "in": true, "this": true,
	"throw": true, "try": true, "catch": true, "finally": true, "instanceof": true,
	"switch": true, "case": true, "default": true,
}

// multi-character punctuators, longest first so maximal munch works.
var puncts = []string{
	"===", "!==", ">>>", "<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "?", ":",
	"(", ")", "{", "}", "[", "]", ";", ",", ".", "&", "|", "^",
}

// SyntaxError reports a lexing or parsing failure with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("minijs: syntax error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
	// sawNewline is set when skipSpaceAndComments crossed a line terminator
	// before the token about to be produced.
	sawNewline bool
	// prev is the previous significant token, used to decide whether a '/'
	// starts a regex literal or a division operator.
	prev    Token
	hasPrev bool
	// tolerant makes lexing recover from malformed input (unterminated
	// strings and comments, stray bytes) instead of failing, recording each
	// defect in errs.
	tolerant bool
	errs     []*SyntaxError
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes src completely, returning the tokens (terminated by a TokEOF
// token) or a *SyntaxError.
func Lex(src string) ([]Token, error) { return lexInto(nil, src) }

// lexInto is Lex appending to toks, so a parse can lex into a recycled
// buffer.
func lexInto(toks []Token, src string) ([]Token, error) {
	lx := newLexer(src)
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

// LexTolerant tokenizes src, recovering from lexical defects: an
// unterminated string closes at end of line, an unterminated block comment
// runs to end of input, and a byte no token can start is skipped. Every
// recovery is recorded as a *SyntaxError; the token stream is always
// TokEOF-terminated and usable.
func LexTolerant(src string) ([]Token, []*SyntaxError) { return lexTolerantInto(nil, src) }

// lexTolerantInto is LexTolerant appending to toks.
func lexTolerantInto(toks []Token, src string) ([]Token, []*SyntaxError) {
	lx := newLexer(src)
	lx.tolerant = true
	for {
		tok, err := lx.next()
		if err != nil {
			// Tolerant mode converts every failure into a recorded error
			// plus forward progress, so next never errors; this is a
			// belt-and-suspenders bail.
			lx.record(err)
			break
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			break
		}
	}
	if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
		toks = append(toks, Token{Kind: TokEOF, Line: lx.line, Col: lx.col})
	}
	return toks, lx.errs
}

// record notes a recovered lexical error in tolerant mode.
func (lx *lexer) record(err error) {
	if se, ok := err.(*SyntaxError); ok {
		lx.errs = append(lx.errs, se)
		return
	}
	lx.errs = append(lx.errs, &SyntaxError{Line: lx.line, Col: lx.col, Msg: err.Error()})
}

func (lx *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) advance(n int) {
	for i := 0; i < n && lx.pos < len(lx.src); i++ {
		if lx.src[lx.pos] == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
		lx.pos++
	}
}

func (lx *lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v':
			if c == '\n' {
				lx.sawNewline = true
			}
			lx.advance(1)
		case strings.HasPrefix(lx.src[lx.pos:], "//"):
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.advance(1)
			}
		case strings.HasPrefix(lx.src[lx.pos:], "/*"):
			end := strings.Index(lx.src[lx.pos+2:], "*/")
			if end < 0 {
				if lx.tolerant {
					// Recover: the comment swallows the rest of the input.
					lx.record(lx.errf("unterminated block comment"))
					lx.advance(len(lx.src) - lx.pos)
					return nil
				}
				return lx.errf("unterminated block comment")
			}
			// A multi-line comment counts as a line terminator for ASI.
			if strings.Contains(lx.src[lx.pos:lx.pos+end+4], "\n") {
				lx.sawNewline = true
			}
			lx.advance(end + 4)
		default:
			return nil
		}
	}
	return nil
}

// regexAllowed reports whether a '/' at the current position starts a regex
// literal rather than a division operator, judged from the previous token
// the way real JS lexers do: division can only follow something that ends an
// expression (an identifier, literal, or closing bracket); everywhere else —
// after operators, '(', ',', keywords like return or typeof, or at the start
// of input — '/' opens a regex.
func (lx *lexer) regexAllowed() bool {
	if !lx.hasPrev {
		return true
	}
	switch lx.prev.Kind {
	case TokIdent, TokNumber, TokString, TokRegex:
		return false
	case TokKeyword:
		switch lx.prev.Text {
		case "this", "true", "false", "null", "undefined":
			return false
		}
		return true
	case TokPunct:
		switch lx.prev.Text {
		case ")", "]", "++", "--":
			// After ')' or ']' a '/' divides; after ++/-- we assume the
			// postfix reading (the prefix one could not be followed by a
			// regex in a valid program anyway). '}' is deliberately NOT
			// here: after a block ends, `/re/.test(x)` is a fresh
			// statement, and dividing by an object literal is no-op code.
			return false
		}
		return true
	}
	return true
}

func (lx *lexer) next() (Token, error) {
	tok, err := lx.scan()
	if err != nil {
		return tok, err
	}
	tok.NewlineBefore = lx.sawNewline
	lx.sawNewline = false
	lx.prev = tok
	lx.hasPrev = true
	return tok, nil
}

func (lx *lexer) scan() (Token, error) {
	for {
		if err := lx.skipSpaceAndComments(); err != nil {
			return Token{}, err
		}
		if lx.pos >= len(lx.src) {
			return Token{Kind: TokEOF, Line: lx.line, Col: lx.col}, nil
		}
		line, col := lx.line, lx.col
		c := lx.src[lx.pos]

		switch {
		case isIdentStart(c):
			start := lx.pos
			for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
				lx.advance(1)
			}
			text := lx.src[start:lx.pos]
			kind := TokIdent
			if keywords[text] {
				kind = TokKeyword
			}
			return Token{Kind: kind, Text: text, Line: line, Col: col}, nil

		case c >= '0' && c <= '9' || c == '.' && lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1]):
			return lx.lexNumber(line, col)

		case c == '"' || c == '\'':
			return lx.lexString(line, col)

		case c == '/' && lx.regexAllowed():
			return lx.lexRegex(line, col)
		}

		for _, p := range puncts {
			if strings.HasPrefix(lx.src[lx.pos:], p) {
				lx.advance(len(p))
				return Token{Kind: TokPunct, Text: p, Line: line, Col: col}, nil
			}
		}
		if lx.tolerant {
			// Recover: skip the byte nothing can start and rescan.
			lx.record(lx.errf("unexpected character %q", c))
			lx.advance(1)
			continue
		}
		return Token{}, lx.errf("unexpected character %q", c)
	}
}

// lexRegex scans /pattern/flags with the '/' as the current byte. Character
// classes ([...]) and backslash escapes hide '/' from terminating the
// literal, like the real grammar.
func (lx *lexer) lexRegex(line, col int) (Token, error) {
	lx.advance(1) // opening '/'
	start := lx.pos
	inClass := false
	for {
		if lx.pos >= len(lx.src) || lx.src[lx.pos] == '\n' {
			if lx.tolerant {
				// Recover: close the regex at end of line.
				lx.record(&SyntaxError{Line: line, Col: col, Msg: "unterminated regular expression"})
				return Token{Kind: TokRegex, Text: lx.src[start:lx.pos], Line: line, Col: col}, nil
			}
			return Token{}, &SyntaxError{Line: line, Col: col, Msg: "unterminated regular expression"}
		}
		c := lx.src[lx.pos]
		if c == '\\' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] != '\n' {
			lx.advance(2)
			continue
		}
		switch c {
		case '[':
			inClass = true
		case ']':
			inClass = false
		case '/':
			if !inClass {
				pattern := lx.src[start:lx.pos]
				lx.advance(1) // closing '/'
				fStart := lx.pos
				for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
					lx.advance(1)
				}
				return Token{Kind: TokRegex, Text: pattern, Str: lx.src[fStart:lx.pos], Line: line, Col: col}, nil
			}
		}
		lx.advance(1)
	}
}

func (lx *lexer) lexNumber(line, col int) (Token, error) {
	start := lx.pos
	// Hex literal.
	if strings.HasPrefix(lx.src[lx.pos:], "0x") || strings.HasPrefix(lx.src[lx.pos:], "0X") {
		lx.advance(2)
		digStart := lx.pos
		for lx.pos < len(lx.src) && isHexDigit(lx.src[lx.pos]) {
			lx.advance(1)
		}
		if lx.pos == digStart {
			if lx.tolerant {
				// Recover: "0x" with no digits reads as zero.
				lx.record(lx.errf("malformed hex literal"))
				return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Num: 0, Line: line, Col: col}, nil
			}
			return Token{}, lx.errf("malformed hex literal")
		}
		var n float64
		for _, d := range lx.src[digStart:lx.pos] {
			n = n*16 + float64(hexVal(byte(d)))
		}
		return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Num: n, Line: line, Col: col}, nil
	}
	for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
		lx.advance(1)
	}
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		lx.advance(1)
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.advance(1)
		}
	}
	mantEnd := lx.pos
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
		lx.advance(1)
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
			lx.advance(1)
		}
		expStart := lx.pos
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.advance(1)
		}
		if lx.pos == expStart {
			if lx.tolerant {
				// Recover: drop the dangling exponent marker; the mantissa
				// digits stand alone as the number.
				lx.record(lx.errf("malformed exponent"))
				text := lx.src[start:mantEnd]
				n, _ := parseFloat(text)
				return Token{Kind: TokNumber, Text: text, Num: n, Line: line, Col: col}, nil
			}
			return Token{}, lx.errf("malformed exponent")
		}
	}
	text := lx.src[start:lx.pos]
	n, err := parseFloat(text)
	if err != nil {
		if lx.tolerant {
			lx.record(lx.errf("malformed number %q", text))
			return Token{Kind: TokNumber, Text: text, Num: 0, Line: line, Col: col}, nil
		}
		return Token{}, lx.errf("malformed number %q", text)
	}
	return Token{Kind: TokNumber, Text: text, Num: n, Line: line, Col: col}, nil
}

func (lx *lexer) lexString(line, col int) (Token, error) {
	quote := lx.src[lx.pos]
	lx.advance(1)
	// Fast path: a literal with no escape and no line break is its own
	// source bytes, so the token shares them instead of building a copy.
	stops := "\"\\\n"
	if quote == '\'' {
		stops = "'\\\n"
	}
	if i := strings.IndexAny(lx.src[lx.pos:], stops); i >= 0 && lx.src[lx.pos+i] == quote {
		text := lx.src[lx.pos : lx.pos+i]
		lx.advance(i + 1)
		return Token{Kind: TokString, Text: text, Str: text, Line: line, Col: col}, nil
	}
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			if lx.tolerant {
				// Recover: the string closes at end of input.
				lx.record(&SyntaxError{Line: line, Col: col, Msg: "unterminated string"})
				return Token{Kind: TokString, Text: b.String(), Str: b.String(), Line: line, Col: col}, nil
			}
			return Token{}, lx.errf("unterminated string")
		}
		c := lx.src[lx.pos]
		if c == quote {
			lx.advance(1)
			return Token{Kind: TokString, Text: b.String(), Str: b.String(), Line: line, Col: col}, nil
		}
		if c == '\n' {
			if lx.tolerant {
				// Recover: the string closes at the line break (the newline
				// itself stays in the input so ASI still sees it).
				lx.record(&SyntaxError{Line: line, Col: col, Msg: "newline in string literal"})
				return Token{Kind: TokString, Text: b.String(), Str: b.String(), Line: line, Col: col}, nil
			}
			return Token{}, lx.errf("newline in string literal")
		}
		if c != '\\' {
			b.WriteByte(c)
			lx.advance(1)
			continue
		}
		// Escape sequence.
		lx.advance(1)
		if lx.pos >= len(lx.src) {
			if lx.tolerant {
				lx.record(&SyntaxError{Line: line, Col: col, Msg: "unterminated escape"})
				return Token{Kind: TokString, Text: b.String(), Str: b.String(), Line: line, Col: col}, nil
			}
			return Token{}, lx.errf("unterminated escape")
		}
		e := lx.src[lx.pos]
		switch e {
		case 'n':
			b.WriteByte('\n')
			lx.advance(1)
		case 't':
			b.WriteByte('\t')
			lx.advance(1)
		case 'r':
			b.WriteByte('\r')
			lx.advance(1)
		case '0':
			b.WriteByte(0)
			lx.advance(1)
		case 'b':
			b.WriteByte('\b')
			lx.advance(1)
		case 'f':
			b.WriteByte('\f')
			lx.advance(1)
		case 'v':
			b.WriteByte('\v')
			lx.advance(1)
		case 'x':
			if lx.pos+2 >= len(lx.src) || !isHexDigit(lx.src[lx.pos+1]) || !isHexDigit(lx.src[lx.pos+2]) {
				if lx.tolerant {
					// Recover: treat as a literal 'x' (the escape consumed
					// the backslash already).
					lx.record(lx.errf("malformed \\x escape"))
					b.WriteByte('x')
					lx.advance(1)
					continue
				}
				return Token{}, lx.errf("malformed \\x escape")
			}
			b.WriteByte(byte(hexVal(lx.src[lx.pos+1])<<4 | hexVal(lx.src[lx.pos+2])))
			lx.advance(3)
		case 'u':
			bad := lx.pos+4 >= len(lx.src)
			v := 0
			if !bad {
				for i := 1; i <= 4; i++ {
					d := lx.src[lx.pos+i]
					if !isHexDigit(d) {
						bad = true
						break
					}
					v = v<<4 | hexVal(d)
				}
			}
			if bad {
				if lx.tolerant {
					lx.record(lx.errf("malformed \\u escape"))
					b.WriteByte('u')
					lx.advance(1)
					continue
				}
				return Token{}, lx.errf("malformed \\u escape")
			}
			b.WriteRune(rune(v))
			lx.advance(5)
		default:
			// Unknown escapes pass the character through, like JS.
			b.WriteByte(e)
			lx.advance(1)
		}
	}
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '$'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

// parseFloat is a minimal decimal float parser sufficient for JS number
// literals (digits, fraction, exponent). It avoids strconv's extra
// allocation in the hot lexing path and keeps behaviour explicit.
func parseFloat(s string) (float64, error) {
	var mant float64
	i := 0
	for i < len(s) && isDigit(s[i]) {
		mant = mant*10 + float64(s[i]-'0')
		i++
	}
	if i < len(s) && s[i] == '.' {
		i++
		frac := 0.1
		for i < len(s) && isDigit(s[i]) {
			mant += float64(s[i]-'0') * frac
			frac /= 10
			i++
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		sign := 1
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			if s[i] == '-' {
				sign = -1
			}
			i++
		}
		exp := 0
		for i < len(s) && isDigit(s[i]) {
			exp = exp*10 + int(s[i]-'0')
			// Beyond ±800 every float64 has saturated to Inf, 0, or stays
			// there; clamping also keeps a literal like 1e999999999 from
			// spinning the scaling loop for seconds (and exp from
			// overflowing int).
			if exp > 800 {
				exp = 800
			}
			i++
		}
		for e := 0; e < exp; e++ {
			if sign > 0 {
				mant *= 10
			} else {
				mant /= 10
			}
		}
	}
	if i != len(s) {
		return 0, fmt.Errorf("trailing characters in number")
	}
	return mant, nil
}
