package minijs

// The AST mirrors the JavaScript subset the lexer accepts. Nodes carry the
// line of their first token so runtime errors can point at source.

// Node is implemented by every AST node.
type Node interface {
	nodeLine() int
}

type pos struct{ Line int }

func (p pos) nodeLine() int { return p.Line }

// ---- Statements ----

// Program is the root node: a list of statements.
type Program struct {
	pos
	Body []Stmt
	// code is the compiled bytecode chunk, set by Compile. It is written
	// once before the program is published (cached/shared) and read-only
	// afterwards, so concurrent executions need no locking.
	code *chunk
}

// Stmt is implemented by statement nodes.
type Stmt interface{ Node }

// VarDecl declares one or more variables: var a = 1, b;
type VarDecl struct {
	pos
	Names []string
	Inits []Expr // nil entry means no initializer
}

// FuncDecl is a named function declaration statement.
type FuncDecl struct {
	pos
	Name string
	Fn   *FuncLit
}

// ExprStmt wraps an expression used as a statement.
type ExprStmt struct {
	pos
	X Expr
}

// BlockStmt is a `{ ... }` statement list.
type BlockStmt struct {
	pos
	Body []Stmt
}

// IfStmt is if/else.
type IfStmt struct {
	pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is a while loop.
type WhileStmt struct {
	pos
	Cond Expr
	Body Stmt
}

// DoWhileStmt is a do/while loop.
type DoWhileStmt struct {
	pos
	Body Stmt
	Cond Expr
}

// ForStmt is the classic three-clause for loop. Init may be a VarDecl or
// ExprStmt; any clause may be nil.
type ForStmt struct {
	pos
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// ForInStmt iterates property names of an object or indices of an array.
type ForInStmt struct {
	pos
	VarName string
	Decl    bool // true when written as `for (var k in x)`
	Obj     Expr
	Body    Stmt
}

// ReturnStmt returns from a function; Value may be nil.
type ReturnStmt struct {
	pos
	Value Expr
}

// BreakStmt breaks the innermost loop.
type BreakStmt struct{ pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ pos }

// ThrowStmt throws a value.
type ThrowStmt struct {
	pos
	Value Expr
}

// TryStmt is try/catch/finally. Catch may be nil when only finally is given.
type TryStmt struct {
	pos
	Body      *BlockStmt
	CatchName string
	Catch     *BlockStmt // nil if no catch clause
	Finally   *BlockStmt // nil if no finally clause
}

// EmptyStmt is a bare semicolon.
type EmptyStmt struct{ pos }

// SwitchStmt is switch (tag) { case ...: ... default: ... }. Cases use
// strict equality and fall through unless a break intervenes, like
// JavaScript.
type SwitchStmt struct {
	pos
	Tag   Expr
	Cases []SwitchCase
}

// SwitchCase is one case (or default when Test is nil) clause.
type SwitchCase struct {
	Test Expr // nil for default
	Body []Stmt
}

// ---- Expressions ----

// Expr is implemented by expression nodes.
type Expr interface{ Node }

// NumberLit is a numeric literal.
type NumberLit struct {
	pos
	Value float64
}

// StringLit is a string literal.
type StringLit struct {
	pos
	Value string
}

// BoolLit is true/false.
type BoolLit struct {
	pos
	Value bool
}

// NullLit is null.
type NullLit struct{ pos }

// UndefinedLit is undefined.
type UndefinedLit struct{ pos }

// Ident is a variable reference.
type Ident struct {
	pos
	Name string
}

// ThisExpr is `this`.
type ThisExpr struct{ pos }

// ArrayLit is [a, b, c].
type ArrayLit struct {
	pos
	Elems []Expr
}

// ObjectLit is {k: v, ...}.
type ObjectLit struct {
	pos
	Keys   []string
	Values []Expr
}

// FuncLit is a function expression: function (params) { body }.
type FuncLit struct {
	pos
	Name   string // optional, for named function expressions
	Params []string
	Body   *BlockStmt
	// UsesArguments reports whether the identifier `arguments` appears
	// anywhere in the function's source (conservatively including nested
	// functions). Call sites materialize the `arguments` array object only
	// when set — the sole way a script can observe the binding is by naming
	// it, so eliding it otherwise is invisible.
	UsesArguments bool
	// code is the function body compiled to bytecode (see Program.code for
	// the publication discipline). Nil until the enclosing program is
	// compiled; only the reference interpreter (NewReference) runs Body.
	code *chunk
}

// RegexLit is a regular-expression literal: /pattern/flags. The Go regexp
// translation is compiled lazily, once per AST node (see compileRegex).
type RegexLit struct {
	pos
	Pattern string
	Flags   string
	rx      *compiledRegex
}

// UnaryExpr is op x, e.g. -x, !x, typeof x. Prefix ++/-- are represented as
// UpdateExpr.
type UnaryExpr struct {
	pos
	Op string
	X  Expr
}

// UpdateExpr is ++x, --x, x++, x--.
type UpdateExpr struct {
	pos
	Op     string // "++" or "--"
	X      Expr   // must be assignable
	Prefix bool
}

// BinaryExpr is x op y for arithmetic/comparison/bitwise operators.
type BinaryExpr struct {
	pos
	Op   string
	X, Y Expr
}

// LogicalExpr is && or || with short-circuit evaluation.
type LogicalExpr struct {
	pos
	Op   string
	X, Y Expr
}

// CondExpr is cond ? a : b.
type CondExpr struct {
	pos
	Cond, Then, Else Expr
}

// AssignExpr is x = y or a compound assignment like x += y.
type AssignExpr struct {
	pos
	Op     string // "=", "+=", ...
	Target Expr   // Ident, MemberExpr or IndexExpr
	Value  Expr
}

// CallExpr is f(args) or obj.m(args).
type CallExpr struct {
	pos
	Callee Expr
	Args   []Expr
}

// NewExpr is new F(args).
type NewExpr struct {
	pos
	Callee Expr
	Args   []Expr
}

// MemberExpr is obj.name.
type MemberExpr struct {
	pos
	Obj  Expr
	Name string
}

// IndexExpr is obj[expr].
type IndexExpr struct {
	pos
	Obj   Expr
	Index Expr
}
