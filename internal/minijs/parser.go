package minijs

import (
	"fmt"
	"sync"
)

// tokenBufs recycles token buffers across parses. The token slice is a
// parse's largest allocation and is dead once the AST is built: nodes copy
// the token fields they keep.
var tokenBufs = sync.Pool{New: func() any { return new([]Token) }}

// maxPooledTokens bounds the buffers kept for reuse, so one huge script
// does not pin its token slice in the pool.
const maxPooledTokens = 1 << 12

// putTokenBuf returns a parse's token buffer, cleared so the pool holds no
// strings of the parsed source.
func putTokenBuf(buf *[]Token, toks []Token) {
	if cap(toks) > maxPooledTokens {
		return
	}
	clear(toks)
	*buf = toks[:0]
	tokenBufs.Put(buf)
}

// Parse parses src into a Program or returns a *SyntaxError.
func Parse(src string) (*Program, error) {
	buf := tokenBufs.Get().(*[]Token)
	toks, err := lexInto(*buf, src)
	defer putTokenBuf(buf, toks)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{pos: pos{Line: 1}}
	for !p.atEOF() {
		stmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, stmt)
	}
	return prog, nil
}

// maxParseErrors is the tolerant parser's error budget. Past it the parser
// sets the abort flag and returns what it has: an input that broken is
// noise, and a fixed budget bounds recovery work on adversarial garbage.
const maxParseErrors = 50

// ParseTolerant parses src, recovering from malformed input instead of
// failing: each defect is recorded and the parser resynchronizes at the next
// statement boundary, so a broken ad script degrades to the statements that
// do parse rather than to nothing. The returned program is never nil; errs
// lists every recovered defect (lexical and syntactic) in source order.
// Recovery is a pure function of src, so execution of the partial program
// stays deterministic.
func ParseTolerant(src string) (*Program, []*SyntaxError) {
	buf := tokenBufs.Get().(*[]Token)
	toks, lexErrs := lexTolerantInto(*buf, src)
	defer putTokenBuf(buf, toks)
	p := &parser{toks: toks, tolerant: true, errs: lexErrs}
	if len(p.errs) >= maxParseErrors {
		p.errs = p.errs[:maxParseErrors]
		p.abort = true
	}
	prog := &Program{pos: pos{Line: 1}}
	for !p.atEOF() && !p.abort {
		from := p.i
		stmt, err := p.parseStmt()
		if err != nil {
			p.recordErr(err)
			p.resync(from)
			continue
		}
		prog.Body = append(prog.Body, stmt)
	}
	return prog, p.errs
}

type parser struct {
	toks  []Token
	i     int
	depth int
	// tolerant switches statement-level error recovery on; errs collects
	// the recovered defects and abort stops the parse once the error
	// budget is spent.
	tolerant bool
	errs     []*SyntaxError
	abort    bool
}

// recordErr notes a recovered parse error and trips the abort flag when the
// budget is exhausted. Errors past the budget are dropped, not recorded.
func (p *parser) recordErr(err error) {
	if p.abort {
		return
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t := p.cur()
		se = &SyntaxError{Line: t.Line, Col: t.Col, Msg: err.Error()}
	}
	p.errs = append(p.errs, se)
	if len(p.errs) >= maxParseErrors {
		p.abort = true
	}
}

// resync skips tokens after a parse error until a plausible statement
// boundary: just past a ';', or right before a '}', a statement keyword, or
// EOF. It always consumes at least one token relative to from, so recovery
// cannot loop.
func (p *parser) resync(from int) {
	if p.i == from {
		// The parser consumed nothing; skip the offending token. A stray
		// ';' or '}' is itself a statement boundary — scanning further
		// would swallow the next (possibly intact) statement.
		t := p.cur()
		p.advance()
		if t.Kind == TokPunct && (t.Text == ";" || t.Text == "}") {
			return
		}
	}
	for !p.atEOF() {
		t := p.cur()
		if t.Kind == TokPunct {
			if t.Text == ";" {
				p.advance()
				return
			}
			if t.Text == "}" {
				return
			}
		}
		if t.Kind == TokKeyword {
			switch t.Text {
			case "var", "function", "if", "while", "do", "for", "return",
				"break", "continue", "throw", "try", "switch",
				"case", "default":
				// case/default matter when resyncing inside a switch body:
				// stopping before them keeps the remaining clauses.
				return
			}
		}
		p.advance()
	}
}

// maxParseDepth bounds statement/expression nesting. Real ad scripts nest a
// few dozen levels; without a bound, input like "((((((..." recurses once
// per byte and can exhaust the goroutine stack, which is an unrecoverable
// crash rather than a catchable syntax error.
const maxParseDepth = 1000

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return p.errf("nesting exceeds %d levels", maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) cur() Token  { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *parser) advance() Token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return &SyntaxError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) isPunct(s string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text == s
}

func (p *parser) isKeyword(s string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == s
}

func (p *parser) eatPunct(s string) bool {
	if p.isPunct(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.eatPunct(s) {
		return p.errf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *parser) eatKeyword(s string) bool {
	if p.isKeyword(s) {
		p.advance()
		return true
	}
	return false
}

// eatSemi consumes an optional statement-terminating semicolon. The dialect
// does not implement full ASI; semicolons are optional before '}' and EOF.
func (p *parser) eatSemi() {
	p.eatPunct(";")
}

func (p *parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case p.isPunct(";"):
		p.advance()
		return &EmptyStmt{pos{t.Line}}, nil
	case p.isPunct("{"):
		return p.parseBlock()
	case p.isKeyword("var"):
		s, err := p.parseVarDecl()
		if err != nil {
			return nil, err
		}
		p.eatSemi()
		return s, nil
	case p.isKeyword("function"):
		return p.parseFuncDecl()
	case p.isKeyword("if"):
		return p.parseIf()
	case p.isKeyword("while"):
		return p.parseWhile()
	case p.isKeyword("do"):
		return p.parseDoWhile()
	case p.isKeyword("for"):
		return p.parseFor()
	case p.isKeyword("return"):
		p.advance()
		s := &ReturnStmt{pos: pos{t.Line}}
		// Restricted production: a line terminator after `return` inserts
		// the semicolon, so `return\nexpr` returns undefined and the
		// expression becomes its own statement — real JS ASI behaviour.
		if !p.isPunct(";") && !p.isPunct("}") && !p.atEOF() && !p.cur().NewlineBefore {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Value = v
		}
		p.eatSemi()
		return s, nil
	case p.isKeyword("break"):
		p.advance()
		p.eatSemi()
		return &BreakStmt{pos{t.Line}}, nil
	case p.isKeyword("continue"):
		p.advance()
		p.eatSemi()
		return &ContinueStmt{pos{t.Line}}, nil
	case p.isKeyword("throw"):
		p.advance()
		// Restricted production: `throw\nexpr` is a SyntaxError in real JS
		// (ASI would leave a bare throw). Tolerant mode records the defect
		// and throws the expression anyway, which keeps more of the script
		// observable.
		if p.cur().NewlineBefore {
			err := p.errf("illegal newline after throw")
			if !p.tolerant {
				return nil, err
			}
			p.recordErr(err)
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.eatSemi()
		return &ThrowStmt{pos{t.Line}, v}, nil
	case p.isKeyword("try"):
		return p.parseTry()
	case p.isKeyword("switch"):
		return p.parseSwitch()
	}
	// Expression statement.
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.eatSemi()
	return &ExprStmt{pos{t.Line}, x}, nil
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	t := p.cur()
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &BlockStmt{pos: pos{t.Line}}
	for !p.isPunct("}") {
		if p.atEOF() {
			if p.tolerant {
				// Recover: a missing '}' closes the block at end of input.
				p.recordErr(p.errf("unterminated block"))
				return b, nil
			}
			return nil, p.errf("unterminated block")
		}
		if p.abort {
			return b, nil
		}
		from := p.i
		s, err := p.parseStmt()
		if err != nil {
			if !p.tolerant {
				return nil, err
			}
			p.recordErr(err)
			p.resync(from)
			continue
		}
		b.Body = append(b.Body, s)
	}
	p.advance() // consume '}'
	return b, nil
}

// parseVarDecl parses `var a = 1, b` without the trailing semicolon.
func (p *parser) parseVarDecl() (*VarDecl, error) {
	t := p.advance() // 'var'
	d := &VarDecl{pos: pos{t.Line}}
	for {
		name := p.cur()
		if name.Kind != TokIdent {
			return nil, p.errf("expected variable name, found %s", name)
		}
		p.advance()
		d.Names = append(d.Names, name.Text)
		if p.eatPunct("=") {
			init, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			d.Inits = append(d.Inits, init)
		} else {
			d.Inits = append(d.Inits, nil)
		}
		if !p.eatPunct(",") {
			return d, nil
		}
	}
}

func (p *parser) parseFuncDecl() (Stmt, error) {
	t := p.cur()
	fn, err := p.parseFuncLit()
	if err != nil {
		return nil, err
	}
	if fn.Name == "" {
		return nil, p.errf("function declaration requires a name")
	}
	return &FuncDecl{pos{t.Line}, fn.Name, fn}, nil
}

// parseFuncLit parses `function name?(params) { body }` with the `function`
// keyword as the current token.
func (p *parser) parseFuncLit() (*FuncLit, error) {
	t := p.advance() // 'function'
	fn := &FuncLit{pos: pos{t.Line}}
	if p.cur().Kind == TokIdent {
		fn.Name = p.advance().Text
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for !p.isPunct(")") {
		name := p.cur()
		if name.Kind != TokIdent {
			return nil, p.errf("expected parameter name, found %s", name)
		}
		p.advance()
		fn.Params = append(fn.Params, name.Text)
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	bodyStart := p.i
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	for j := bodyStart; j < p.i && j < len(p.toks); j++ {
		if p.toks[j].Kind == TokIdent && p.toks[j].Text == "arguments" {
			fn.UsesArguments = true
			break
		}
	}
	return fn, nil
}

func (p *parser) parseIf() (Stmt, error) {
	t := p.advance() // 'if'
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{pos: pos{t.Line}, Cond: cond, Then: then}
	if p.eatKeyword("else") {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s.Else = els
	}
	return s, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	t := p.advance() // 'while'
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{pos{t.Line}, cond, body}, nil
}

func (p *parser) parseDoWhile() (Stmt, error) {
	t := p.advance() // 'do'
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if !p.eatKeyword("while") {
		return nil, p.errf("expected 'while' after do body")
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	p.eatSemi()
	return &DoWhileStmt{pos{t.Line}, body, cond}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	t := p.advance() // 'for'
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}

	// Disambiguate for-in from three-clause for.
	if s, ok, err := p.tryParseForIn(t); err != nil {
		return nil, err
	} else if ok {
		return s, nil
	}

	f := &ForStmt{pos: pos{t.Line}}
	if !p.isPunct(";") {
		if p.isKeyword("var") {
			d, err := p.parseVarDecl()
			if err != nil {
				return nil, err
			}
			f.Init = d
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Init = &ExprStmt{pos{t.Line}, x}
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Cond = cond
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Post = post
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// tryParseForIn attempts `for (var? name in expr) stmt` starting just after
// the '('. It looks ahead without consuming unless the pattern matches.
func (p *parser) tryParseForIn(t Token) (Stmt, bool, error) {
	save := p.i
	decl := false
	if p.isKeyword("var") {
		p.advance()
		decl = true
	}
	if p.cur().Kind != TokIdent {
		p.i = save
		return nil, false, nil
	}
	name := p.advance().Text
	if !p.isKeyword("in") {
		p.i = save
		return nil, false, nil
	}
	p.advance() // 'in'
	obj, err := p.parseExpr()
	if err != nil {
		return nil, false, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, false, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, false, err
	}
	return &ForInStmt{pos{t.Line}, name, decl, obj, body}, true, nil
}

func (p *parser) parseTry() (Stmt, error) {
	t := p.advance() // 'try'
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s := &TryStmt{pos: pos{t.Line}, Body: body}
	if p.eatKeyword("catch") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		name := p.cur()
		if name.Kind != TokIdent {
			return nil, p.errf("expected catch parameter, found %s", name)
		}
		p.advance()
		s.CatchName = name.Text
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		catch, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		s.Catch = catch
	}
	if p.eatKeyword("finally") {
		fin, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		s.Finally = fin
	}
	if s.Catch == nil && s.Finally == nil {
		return nil, p.errf("try without catch or finally")
	}
	return s, nil
}

func (p *parser) parseSwitch() (Stmt, error) {
	t := p.advance() // 'switch'
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	tag, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	s := &SwitchStmt{pos: pos{t.Line}, Tag: tag}
	sawDefault := false
	for !p.isPunct("}") {
		if p.atEOF() {
			return nil, p.errf("unterminated switch")
		}
		var c SwitchCase
		switch {
		case p.eatKeyword("case"):
			test, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Test = test
		case p.eatKeyword("default"):
			if sawDefault {
				return nil, p.errf("duplicate default clause")
			}
			sawDefault = true
		default:
			return nil, p.errf("expected 'case' or 'default', found %s", p.cur())
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		for !p.isPunct("}") && !p.isKeyword("case") && !p.isKeyword("default") {
			if p.atEOF() {
				if p.tolerant {
					p.recordErr(p.errf("unterminated switch case"))
					s.Cases = append(s.Cases, c)
					return s, nil
				}
				return nil, p.errf("unterminated switch case")
			}
			if p.abort {
				s.Cases = append(s.Cases, c)
				return s, nil
			}
			from := p.i
			stmt, err := p.parseStmt()
			if err != nil {
				if !p.tolerant {
					return nil, err
				}
				p.recordErr(err)
				p.resync(from)
				continue
			}
			c.Body = append(c.Body, stmt)
		}
		s.Cases = append(s.Cases, c)
	}
	p.advance() // '}'
	return s, nil
}

// ---- Expressions (precedence climbing) ----

// parseExpr parses a full expression including the comma operator's absence:
// the dialect treats ',' only as a separator, so parseExpr == parseAssign.
func (p *parser) parseExpr() (Expr, error) { return p.parseAssign() }

func (p *parser) parseAssign() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.parseConditional()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=":
			if !isAssignable(left) {
				return nil, p.errf("invalid assignment target")
			}
			p.advance()
			right, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			return &AssignExpr{pos{t.Line}, t.Text, left, right}, nil
		}
	}
	return left, nil
}

func isAssignable(e Expr) bool {
	switch e.(type) {
	case *Ident, *MemberExpr, *IndexExpr:
		return true
	}
	return false
}

func (p *parser) parseConditional() (Expr, error) {
	cond, err := p.parseLogicalOr()
	if err != nil {
		return nil, err
	}
	if !p.isPunct("?") {
		return cond, nil
	}
	t := p.advance()
	then, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	els, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	return &CondExpr{pos{t.Line}, cond, then, els}, nil
}

func (p *parser) parseLogicalOr() (Expr, error) {
	x, err := p.parseLogicalAnd()
	if err != nil {
		return nil, err
	}
	for p.isPunct("||") {
		t := p.advance()
		y, err := p.parseLogicalAnd()
		if err != nil {
			return nil, err
		}
		x = &LogicalExpr{pos{t.Line}, "||", x, y}
	}
	return x, nil
}

func (p *parser) parseLogicalAnd() (Expr, error) {
	x, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	for p.isPunct("&&") {
		t := p.advance()
		y, err := p.parseBinary(0)
		if err != nil {
			return nil, err
		}
		x = &LogicalExpr{pos{t.Line}, "&&", x, y}
	}
	return x, nil
}

// binary operator precedence levels, lowest first.
var binaryLevels = [][]string{
	{"|"},
	{"^"},
	{"&"},
	{"==", "!=", "===", "!=="},
	{"<", ">", "<=", ">=", "instanceof", "in"},
	{"<<", ">>", ">>>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(binaryLevels) {
		return p.parseUnary()
	}
	x, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		matched := ""
		for _, op := range binaryLevels[level] {
			if (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == op {
				matched = op
				break
			}
		}
		if matched == "" {
			return x, nil
		}
		p.advance()
		y, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{pos{t.Line}, matched, x, y}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "-", "+", "!", "~":
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{pos{t.Line}, t.Text, x}, nil
		case "++", "--":
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if !isAssignable(x) {
				return nil, p.errf("invalid %s target", t.Text)
			}
			return &UpdateExpr{pos{t.Line}, t.Text, x, true}, nil
		}
	}
	if t.Kind == TokKeyword {
		switch t.Text {
		case "typeof", "delete":
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{pos{t.Line}, t.Text, x}, nil
		case "new":
			p.advance()
			callee, err := p.parseMemberOnly()
			if err != nil {
				return nil, err
			}
			var args []Expr
			if p.isPunct("(") {
				args, err = p.parseArgs()
				if err != nil {
					return nil, err
				}
			}
			x := Expr(&NewExpr{pos{t.Line}, callee, args})
			return p.parsePostfixOps(x)
		}
	}
	return p.parsePostfix()
}

// parseMemberOnly parses a primary expression followed by member/index
// accesses but not call arguments — the callee of `new`.
func (p *parser) parseMemberOnly() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case p.isPunct("."):
			p.advance()
			name := p.cur()
			if name.Kind != TokIdent && name.Kind != TokKeyword {
				return nil, p.errf("expected property name, found %s", name)
			}
			p.advance()
			x = &MemberExpr{pos{t.Line}, x, name.Text}
		case p.isPunct("["):
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{pos{t.Line}, x, idx}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	return p.parsePostfixOps(x)
}

func (p *parser) parsePostfixOps(x Expr) (Expr, error) {
	for {
		t := p.cur()
		switch {
		case p.isPunct("."):
			p.advance()
			name := p.cur()
			if name.Kind != TokIdent && name.Kind != TokKeyword {
				return nil, p.errf("expected property name, found %s", name)
			}
			p.advance()
			x = &MemberExpr{pos{t.Line}, x, name.Text}
		case p.isPunct("["):
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{pos{t.Line}, x, idx}
		case p.isPunct("("):
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			x = &CallExpr{pos{t.Line}, x, args}
		case p.isPunct("++") || p.isPunct("--"):
			// Restricted production: a line terminator before ++/-- ends
			// the expression, so `a\n++b` is `a; ++b`, not `a++; b`.
			if t.NewlineBefore {
				return x, nil
			}
			if !isAssignable(x) {
				return x, nil // postfix ++ on non-assignable: leave for caller to fail
			}
			p.advance()
			x = &UpdateExpr{pos{t.Line}, t.Text, x, false}
		default:
			return x, nil
		}
	}
}

func (p *parser) parseArgs() ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.isPunct(")") {
		a, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.advance()
		return &NumberLit{pos{t.Line}, t.Num}, nil
	case TokString:
		p.advance()
		return &StringLit{pos{t.Line}, t.Str}, nil
	case TokIdent:
		p.advance()
		return &Ident{pos{t.Line}, t.Text}, nil
	case TokRegex:
		p.advance()
		// rx is allocated here, at parse time, so that concurrent executions
		// of a shared (cached) AST race only on the sync.Once inside it.
		return &RegexLit{pos: pos{t.Line}, Pattern: t.Text, Flags: t.Str, rx: &compiledRegex{}}, nil
	case TokKeyword:
		switch t.Text {
		case "true":
			p.advance()
			return &BoolLit{pos{t.Line}, true}, nil
		case "false":
			p.advance()
			return &BoolLit{pos{t.Line}, false}, nil
		case "null":
			p.advance()
			return &NullLit{pos{t.Line}}, nil
		case "undefined":
			p.advance()
			return &UndefinedLit{pos{t.Line}}, nil
		case "this":
			p.advance()
			return &ThisExpr{pos{t.Line}}, nil
		case "function":
			return p.parseFuncLit()
		}
	case TokPunct:
		switch t.Text {
		case "(":
			p.advance()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return x, nil
		case "[":
			p.advance()
			a := &ArrayLit{pos: pos{t.Line}}
			for !p.isPunct("]") {
				e, err := p.parseAssign()
				if err != nil {
					return nil, err
				}
				a.Elems = append(a.Elems, e)
				if !p.eatPunct(",") {
					break
				}
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			return a, nil
		case "{":
			return p.parseObjectLit()
		}
	}
	return nil, p.errf("unexpected token %s", t)
}

func (p *parser) parseObjectLit() (Expr, error) {
	t := p.advance() // '{'
	o := &ObjectLit{pos: pos{t.Line}}
	for !p.isPunct("}") {
		key := p.cur()
		var name string
		switch key.Kind {
		case TokIdent, TokKeyword:
			name = key.Text
		case TokString:
			name = key.Str
		case TokNumber:
			name = formatNumber(key.Num)
		default:
			return nil, p.errf("invalid object key %s", key)
		}
		p.advance()
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		v, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		o.Keys = append(o.Keys, name)
		o.Values = append(o.Values, v)
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return o, nil
}
