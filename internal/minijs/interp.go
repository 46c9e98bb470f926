package minijs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// ErrBudget is returned when a script exceeds its step budget. The crawler
// treats a budget hit as "script did not terminate" — exactly how a real
// honeyclient bounds adversarial ads.
var ErrBudget = errors.New("minijs: step budget exhausted")

// maxArrayLen bounds dense array growth and Array(n) allocation. The step
// budget bounds how many statements run, but a single a[1e9] = 1 would
// allocate gigabytes in one step; past this bound the interpreter throws a
// catchable RangeError instead.
const maxArrayLen = 1 << 20

// maxStringLen bounds string concatenation results. Repeated s = s + s
// doubles per iteration, so a handful of budget steps could otherwise
// allocate an arbitrarily large string (real engines throw RangeError
// "Invalid string length" the same way, just at a higher bound).
const maxStringLen = 1 << 24

// ThrowError wraps a value thrown by script code (throw statement or a
// runtime TypeError the interpreter raises).
type ThrowError struct {
	Value Value
	Line  int
}

func (e *ThrowError) Error() string {
	return fmt.Sprintf("minijs: uncaught exception at line %d: %s", e.Line, ToString(e.Value))
}

// throwStr builds a ThrowError carrying a string value (the interpreter's
// TypeError/RangeError/ReferenceError payloads).
func throwStr(msg string, line int) *ThrowError {
	return &ThrowError{Value: Str(msg), Line: line}
}

// envInline is the number of bindings an Env stores inline before spilling
// to a map. Call scopes (this + a few params) and block scopes almost always
// fit, which makes scope creation a single allocation with no map.
const envInline = 6

// Env is a lexical scope: a small inline set of bindings with a map
// overflow, plus a pointer to the enclosing scope.
type Env struct {
	parent *Env
	n      int8
	// frozen marks the shared builtins scope every interpreter chains to.
	// Assignments never land in a frozen scope (they shadow in the nearest
	// mutable global instead), so concurrent interpreters can read it safely.
	frozen bool
	names  [envInline]string
	vals   [envInline]Value
	more   map[string]Value
}

// NewEnv returns a scope nested in parent (parent may be nil for globals).
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent}
}

func (e *Env) lookupLocal(name string) (Value, bool) {
	for i := int8(0); i < e.n; i++ {
		if e.names[i] == name {
			return e.vals[i], true
		}
	}
	if e.more != nil {
		v, ok := e.more[name]
		return v, ok
	}
	return Value{}, false
}

// Lookup finds name in this scope chain.
func (e *Env) Lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.lookupLocal(name); ok {
			return v, true
		}
	}
	return Undefined(), false
}

// Define creates or overwrites name in this exact scope.
func (e *Env) Define(name string, v Value) {
	for i := int8(0); i < e.n; i++ {
		if e.names[i] == name {
			e.vals[i] = v
			return
		}
	}
	if e.more != nil {
		e.more[name] = v
		return
	}
	if int(e.n) < envInline {
		e.names[e.n] = name
		e.vals[e.n] = v
		e.n++
		return
	}
	// A scope that spills past the inline slots is almost always the global
	// scope (builtins plus host bindings), so size the map for that case.
	e.more = make(map[string]Value, 16)
	e.more[name] = v
}

func (e *Env) assignLocal(name string, v Value) bool {
	for i := int8(0); i < e.n; i++ {
		if e.names[i] == name {
			e.vals[i] = v
			return true
		}
	}
	if e.more != nil {
		if _, ok := e.more[name]; ok {
			e.more[name] = v
			return true
		}
	}
	return false
}

// Assign sets name in the nearest scope that defines it; if none does, the
// value lands in the global (outermost) scope — JavaScript's implicit-global
// behaviour, which obfuscated ad scripts rely on.
func (e *Env) Assign(name string, v Value) {
	var outer *Env
	for s := e; s != nil; s = s.parent {
		if s.frozen {
			// A binding in the frozen builtins scope (e.g. `Array = shim`)
			// is shadowed in the interpreter's own global instead of
			// mutating state shared across interpreters.
			continue
		}
		if s.assignLocal(name, v) {
			return
		}
		outer = s
	}
	outer.Define(name, v)
}

// Each calls f for every binding in this exact scope (no parent traversal),
// in unspecified order.
func (e *Env) Each(f func(name string, v Value)) {
	for i := int8(0); i < e.n; i++ {
		f(e.names[i], e.vals[i])
	}
	for k, v := range e.more {
		f(k, v)
	}
}

// Interp executes parsed programs. One Interp corresponds to one page's
// script execution context in the emulated browser.
type Interp struct {
	// Global is the global scope. Host bindings (document, window, ...) are
	// Defined here by the embedder before Run.
	Global *Env
	// Budget is the remaining statement/expression step allowance.
	Budget int
	// MaxDepth bounds recursion (call depth).
	MaxDepth int
	depth    int
	// walk marks a reference interpreter (NewReference): it tree-walks
	// every program and function instead of compiling. Fixed at
	// construction, so one interpreter never mixes engines.
	walk bool
	// Host is an opaque embedder slot. Shared frozen host natives (see
	// NewSharedNative) reach per-document state through it instead of
	// capturing that state in per-interpreter closures.
	Host any
	// vm is the active pooled machine while a VM execution is in flight.
	vm *machine
	// objArena is the current chunk of the interp-owned object arena (see
	// Interp.alloc in value.go).
	objArena []Object
}

// DefaultBudget is the per-execution step allowance. Ads in the simulation
// run well under this; runaway loops hit it quickly.
const DefaultBudget = 2_000_000

// New returns an interpreter with a fresh global scope, the default budget,
// and standard builtins (Math, String, parseInt, ...) installed.
func New() *Interp {
	in := &Interp{Global: NewEnv(sharedGlobals), Budget: DefaultBudget, MaxDepth: 200}
	installBuiltins(in)
	return in
}

// Run parses and executes src in the global scope.
func (in *Interp) Run(src string) (Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return Undefined(), err
	}
	return in.RunProgram(prog)
}

// RunProgram executes an already-parsed program in the global scope.
func (in *Interp) RunProgram(prog *Program) (Value, error) {
	if in.walk {
		return in.walkProgram(prog)
	}
	if prog.code == nil {
		// Compile on demand (eval, embedders without a code cache).
		if err := CompileProgram(context.Background(), prog); err != nil {
			return Undefined(), err
		}
	}
	return in.runProgramVM(prog)
}

// CallFunction invokes a script function value from Go, e.g. the browser
// firing a setTimeout callback or an onclick handler.
func (in *Interp) CallFunction(fn Value, this Value, args []Value) (Value, error) {
	obj := fn.Obj()
	if obj == nil || !obj.IsFunction() {
		return Undefined(), &ThrowError{Value: Str("TypeError: not a function")}
	}
	return in.callObject(obj, this, args, 0)
}

// control-flow signals threaded through statement execution.
type ctl int

const (
	ctlNone ctl = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

// stmtDeclares reports whether s, executed directly in a scope (not inside
// its own block), would Define a binding there.
func stmtDeclares(s Stmt) bool {
	switch s.(type) {
	case *VarDecl, *FuncDecl:
		return true
	}
	return false
}

// blockNeedsScope reports whether a block's direct statements declare
// bindings. Blocks that declare nothing share the enclosing scope: no
// binding can land in them (Assign never creates intermediate-scope
// bindings), so eliding the Env is invisible to scripts. The compiler uses
// the same predicate, keeping the two engines in lockstep.
func blockNeedsScope(body []Stmt) bool {
	for _, s := range body {
		if stmtDeclares(s) {
			return true
		}
	}
	return false
}

// forNeedsScope mirrors blockNeedsScope for a for statement's loop scope.
func forNeedsScope(st *ForStmt) bool {
	if st.Init != nil && stmtDeclares(st.Init) {
		return true
	}
	return stmtDeclares(st.Body)
}

// forInNeedsScope mirrors blockNeedsScope for a for-in loop scope.
func forInNeedsScope(st *ForInStmt) bool {
	return st.Decl || stmtDeclares(st.Body)
}

func (in *Interp) makeFunction(fn *FuncLit, env *Env) *Object {
	return &Object{Fn: fn, Env: env, Name: fn.Name}
}

func applyBinary(op string, a, b Value, line int) (Value, error) {
	switch op {
	case "+":
		// Numeric fast path: both sides already numbers.
		if a.kind == KindNumber && b.kind == KindNumber {
			return Num(a.num + b.num), nil
		}
		// String concatenation if either side is a string or a non-array
		// object (which stringifies).
		if isStringy(a) || isStringy(b) {
			sa, sb := ToString(a), ToString(b)
			if len(sa)+len(sb) > maxStringLen {
				return Value{}, throwStr("RangeError: invalid string length", line)
			}
			return Str(sa + sb), nil
		}
		return Num(ToNumber(a) + ToNumber(b)), nil
	case "-":
		return Num(ToNumber(a) - ToNumber(b)), nil
	case "*":
		return Num(ToNumber(a) * ToNumber(b)), nil
	case "/":
		return Num(ToNumber(a) / ToNumber(b)), nil
	case "%":
		return Num(math.Mod(ToNumber(a), ToNumber(b))), nil
	case "==":
		return Bool(LooseEquals(a, b)), nil
	case "!=":
		return Bool(!LooseEquals(a, b)), nil
	case "===":
		return Bool(StrictEquals(a, b)), nil
	case "!==":
		return Bool(!StrictEquals(a, b)), nil
	case "<", ">", "<=", ">=":
		return Bool(compare(op, a, b)), nil
	case "&":
		return Num(float64(toInt32(a) & toInt32(b))), nil
	case "|":
		return Num(float64(toInt32(a) | toInt32(b))), nil
	case "^":
		return Num(float64(toInt32(a) ^ toInt32(b))), nil
	case "<<":
		return Num(float64(toInt32(a) << (toUint32(b) & 31))), nil
	case ">>":
		return Num(float64(toInt32(a) >> (toUint32(b) & 31))), nil
	case ">>>":
		return Num(float64(toUint32(a) >> (toUint32(b) & 31))), nil
	case "in":
		obj := b.Obj()
		if obj == nil {
			return Value{}, throwStr("TypeError: 'in' on non-object", line)
		}
		_, found := obj.Get(ToString(a))
		return Bool(found), nil
	case "instanceof":
		// The dialect has no prototype chains; instanceof is a pragmatic
		// check: array instanceof Array, function instanceof Function.
		obj := a.Obj()
		if obj == nil {
			return Bool(false), nil
		}
		name := ""
		if fb := b.Obj(); fb != nil {
			name = fb.Name
		}
		switch name {
		case "Array":
			return Bool(obj.IsArray), nil
		case "Function":
			return Bool(obj.IsFunction()), nil
		}
		return Bool(false), nil
	}
	return Value{}, fmt.Errorf("minijs: unknown binary op %q", op)
}

func isStringy(v Value) bool {
	switch v.kind {
	case KindString:
		return true
	case KindObject:
		return !v.obj.IsFunction() // objects and arrays concatenate as strings with +
	}
	return false
}

func compare(op string, a, b Value) bool {
	if a.kind == KindString && b.kind == KindString {
		as, bs := a.str, b.str
		switch op {
		case "<":
			return as < bs
		case ">":
			return as > bs
		case "<=":
			return as <= bs
		case ">=":
			return as >= bs
		}
	}
	an, bn := ToNumber(a), ToNumber(b)
	if math.IsNaN(an) || math.IsNaN(bn) {
		return false
	}
	switch op {
	case "<":
		return an < bn
	case ">":
		return an > bn
	case "<=":
		return an <= bn
	case ">=":
		return an >= bn
	}
	return false
}

func toInt32(v Value) int32 {
	n := ToNumber(v)
	if math.IsNaN(n) || math.IsInf(n, 0) {
		return 0
	}
	return int32(int64(n))
}

func toUint32(v Value) uint32 {
	n := ToNumber(v)
	if math.IsNaN(n) || math.IsInf(n, 0) {
		return 0
	}
	return uint32(int64(n))
}

// setMemberValue stores obj.name = val; shared by the tree-walker's
// assignTo and the VM's opSetMember so error values stay identical.
func (in *Interp) setMemberValue(objV Value, name string, val Value, line int) error {
	obj := objV.Obj()
	if obj == nil {
		return throwStr("TypeError: cannot set property "+name+" of non-object", line)
	}
	obj.Set(name, val)
	return nil
}

// setIndexValue stores obj[idx] = val; shared by assignTo and opSetIndex.
func (in *Interp) setIndexValue(objV, idxV, val Value, line int) error {
	obj := objV.Obj()
	if obj == nil {
		return throwStr("TypeError: cannot index non-object", line)
	}
	if obj.IsArray {
		if idx, ok := arrayIndex(idxV); ok && idx >= 0 {
			if obj.frozen {
				return nil
			}
			if idx >= maxArrayLen {
				return throwStr("RangeError: invalid array length", line)
			}
			for len(obj.Elems) <= idx {
				obj.Elems = append(obj.Elems, Undefined())
			}
			obj.Elems[idx] = val
			return nil
		}
	}
	obj.Set(ToString(idxV), val)
	return nil
}

func calleeName(e Expr) string {
	switch c := e.(type) {
	case *Ident:
		return c.Name
	case *MemberExpr:
		return calleeName(c.Obj) + "." + c.Name
	default:
		return "expression"
	}
}

func (in *Interp) callObject(fn *Object, this Value, args []Value, line int) (Value, error) {
	if in.depth >= in.MaxDepth {
		return Value{}, throwStr("RangeError: maximum call depth exceeded", line)
	}
	in.depth++
	defer func() { in.depth-- }()

	if fn.Native != nil {
		return fn.Native(in, this, args)
	}
	callEnv := NewEnv(fn.Env)
	callEnv.Define("this", this)
	if fn.Fn.UsesArguments {
		// Copy args: the VM hands out slices of its reusable call arena, so
		// anything that outlives the call must own its backing array.
		argsArr := in.NewArray(append([]Value(nil), args...)...)
		callEnv.Define("arguments", argsArr.Value())
	}
	for i, p := range fn.Fn.Params {
		if i < len(args) {
			callEnv.Define(p, args[i])
		} else {
			callEnv.Define(p, Undefined())
		}
	}
	var v Value
	var c ctl
	var err error
	if in.walk {
		v, c, err = in.execBlock(fn.Fn.Body, callEnv)
	} else {
		_, acquired := in.ensureMachine()
		v, c, err = in.runChunk(fn.Fn.code, callEnv)
		if acquired {
			in.releaseMachine()
		}
	}
	if err != nil {
		return Value{}, err
	}
	if c == ctlReturn {
		return v, nil
	}
	return Undefined(), nil
}

// getMember resolves obj.name including primitive methods on strings,
// numbers, and arrays.
func (in *Interp) getMember(objV Value, name string, line int) (Value, error) {
	switch objV.kind {
	case KindString:
		return stringMember(objV.str, name), nil
	case KindNumber:
		return numberMember(objV.num, name), nil
	case KindObject:
		o := objV.obj
		if o.IsArray {
			if m := arrayMember(name); m != nil {
				return m.Value(), nil
			}
		}
		v, _ := o.Get(name)
		return v, nil
	case KindEmpty, KindUndefined, KindNull:
		return Value{}, throwStr("TypeError: cannot read property '"+name+"' of "+ToString(objV), line)
	}
	return Undefined(), nil
}

func (in *Interp) getIndex(objV Value, idx Value, line int) (Value, error) {
	switch objV.kind {
	case KindString:
		o := objV.str
		if idx.kind == KindNumber {
			n := int(idx.num)
			if n >= 0 && n < len(o) {
				return Str(o[n : n+1]), nil
			}
			return Undefined(), nil
		}
		return stringMember(o, ToString(idx)), nil
	case KindObject:
		o := objV.obj
		if o.IsArray {
			if n, ok := arrayIndex(idx); ok {
				if n >= 0 && n < len(o.Elems) {
					return o.Elems[n], nil
				}
				return Undefined(), nil
			}
			if m := arrayMember(ToString(idx)); m != nil {
				return m.Value(), nil
			}
		}
		return in.getMember(objV, ToString(idx), line)
	case KindEmpty, KindUndefined, KindNull:
		return Value{}, throwStr("TypeError: cannot index "+ToString(objV), line)
	}
	return Undefined(), nil
}

// arrayIndex interprets v as an integer array index. Numeric strings count,
// because for-in yields string keys ("0", "1", ...) that scripts use to
// index back into the array.
func arrayIndex(v Value) (int, bool) {
	switch v.kind {
	case KindNumber:
		if v.num == math.Trunc(v.num) && !math.IsInf(v.num, 0) {
			return int(v.num), true
		}
	case KindString:
		x := v.str
		if x == "" {
			return 0, false
		}
		n := 0
		for i := 0; i < len(x); i++ {
			if x[i] < '0' || x[i] > '9' {
				return 0, false
			}
			n = n*10 + int(x[i]-'0')
			if n > 1<<30 {
				return 0, false
			}
		}
		return n, true
	}
	return 0, false
}

// parseIntValue implements parseInt semantics for builtins.go.
func parseIntValue(s string, radix int) float64 {
	s = trimLeadingSpace(s)
	sign := 1.0
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		if s[0] == '-' {
			sign = -1
		}
		s = s[1:]
	}
	if radix == 0 {
		if len(s) > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
			radix = 16
			s = s[2:]
		} else {
			radix = 10
		}
	} else if radix == 16 && len(s) > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	end := 0
	for end < len(s) && digitVal(s[end]) >= 0 && digitVal(s[end]) < radix {
		end++
	}
	if end == 0 {
		return math.NaN()
	}
	n, err := strconv.ParseInt(s[:end], radix, 64)
	if err != nil {
		// Overflow: fall back to float accumulation.
		f := 0.0
		for i := 0; i < end; i++ {
			f = f*float64(radix) + float64(digitVal(s[i]))
		}
		return sign * f
	}
	return sign * float64(n)
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'z':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		return int(c-'A') + 10
	}
	return -1
}

func trimLeadingSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t' || s[0] == '\n' || s[0] == '\r') {
		s = s[1:]
	}
	return s
}
