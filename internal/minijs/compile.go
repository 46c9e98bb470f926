package minijs

// compile.go lowers the AST to a compact stack bytecode: interned atoms and
// constants, constant folding, and jump-patched control flow. The compiled
// form preserves the tree-walker's semantics exactly — including its step
// accounting: every in.step() call the tree-walker would make is attached as
// a cost to the first instruction executed at or after that point, so a
// script that exhausts its budget fails at the same observable point under
// both engines (see vm.go for the execution side).

import (
	"context"
	"fmt"
	"math"
)

type opcode uint8

const (
	opCost          opcode = iota // no-op carrying accumulated step cost
	opConst                       // push consts[a]
	opPop                         // pop
	opDup                         // duplicate top
	opSwap                        // swap top two
	opGetVar                      // push env lookup of atoms[a]; ReferenceError when unbound
	opAssignVar                   // pop v; env.Assign(atoms[a], v)
	opDefine                      // pop v; env.Define(atoms[a], v)
	opThis                        // push `this` (Undefined when unbound)
	opTypeofVar                   // push typeof of atoms[a] ("undefined" when unbound)
	opMakeFunc                    // push closure over funcs[a]
	opHoistFunc                   // define atoms[b] = closure over funcs[a]
	opMakeArray                   // pop a elements; push array
	opMakeObject                  // pop len(keys[a]) values; push object
	opMakeRegex                   // push fresh regex object for regexes[a]
	opGetMember                   // pop obj; push obj.atoms[a]
	opSetMember                   // pop obj, then v; set obj.atoms[a] = v
	opDelMember                   // pop obj; delete atoms[a]; push true
	opGetIndex                    // pop idx, obj; push obj[idx]
	opSetIndex                    // pop idx, obj, then v; set obj[idx] = v
	opUnary                       // pop x; push unaryOps[a] applied to x
	opBinary                      // pop y, x; push x binaryOps[a] y
	opUpdateNum                   // pop old; next=ToNumber(old)+a; push result, next
	opJump                        // pc = a
	opJumpFalse                   // pop v; if !Truthy(v) pc = a
	opJumpTrue                    // pop v; if Truthy(v) pc = a
	opCaseJump                    // pop t; if StrictEquals(peek, t) pc = a
	opCall                        // pop a args, fn, this; push result (atoms[b] = callee name)
	opNew                         // pop a args, ctor; push constructed object
	opReturn                      // pop v; finish chunk with ctlReturn
	opThrow                       // pop v; throw it
	opTry                         // execute trys[a] (sub-chunks for body/catch/finally)
	opBreak                       // finish chunk with ctlBreak
	opContinue                    // finish chunk with ctlContinue
	opPushScope                   // env = new child scope
	opPopScope                    // env = parent scope
	opForInInit                   // pop obj; push key iterator
	opForInNext                   // push next key from iterator at top, or jump a
	opSetCompletion               // pop v; completion register = v
)

// instr is one bytecode instruction. cost is the number of interpreter steps
// charged before the instruction executes; a and b are operands (constant,
// atom, function, or patched jump target indices); line is the source line
// for runtime errors.
type instr struct {
	op   opcode
	cost uint16
	a, b int32
	line int32
}

// tryDesc describes one try/catch/finally site. Body, catch and finally are
// compiled as sub-chunks because their non-local exits (throw crossing
// finally, break/continue escaping the statement) mirror the tree-walker's
// recursive execution. breakPC/contPC point at stub code in the enclosing
// chunk that unwinds to the nearest loop, or -1 to propagate the control
// signal out of the chunk.
type tryDesc struct {
	body, catch, finally *chunk
	catchAtom            int32
	breakPC, contPC      int32
}

// chunk is one compiled code unit: the program, a function body, or a
// try-statement sub-block. Atoms, constants and nested literals are interned
// per chunk; indices are assigned in first-encounter order so compilation is
// deterministic and disassembly is stable across runs.
type chunk struct {
	name    string
	code    []instr
	consts  []Value
	atoms   []string
	funcs   []*FuncLit
	keys    [][]string
	regexes []*RegexLit
	trys    []tryDesc
}

// binaryOps and unaryOps give operators stable indices shared by the
// compiler, the VM, and the disassembler.
var binaryOps = []string{
	"+", "-", "*", "/", "%", "==", "!=", "===", "!==",
	"<", ">", "<=", ">=", "&", "|", "^", "<<", ">>", ">>>",
	"in", "instanceof",
}

var unaryOps = []string{"-", "+", "!", "~", "typeof"}

var binaryOpIdx = func() map[string]int32 {
	m := make(map[string]int32, len(binaryOps))
	for i, op := range binaryOps {
		m[op] = int32(i)
	}
	return m
}()

var unaryOpIdx = func() map[string]int32 {
	m := make(map[string]int32, len(unaryOps))
	for i, op := range unaryOps {
		m[op] = int32(i)
	}
	return m
}()

// compileAbort carries a context cancellation out of the recursive compiler
// via panic; CompileProgram recovers it. Cancellation is the only way a
// compile fails: the compiler handles every AST the parser produces.
type compileAbort struct{ err error }

// compileState is shared across the chunks of one CompileProgram call.
type compileState struct {
	ctx      context.Context
	emits    int
	fnChunks []fnChunk
}

type fnChunk struct {
	fn *FuncLit
	ch *chunk
}

func (st *compileState) tick() {
	st.emits++
	if st.emits&255 == 0 && st.ctx != nil {
		if err := st.ctx.Err(); err != nil {
			panic(compileAbort{err})
		}
	}
}

// CompileProgram lowers prog (and every function literal it contains) to
// bytecode. On success it publishes the chunks into prog.code and each
// FuncLit.code; on error (context cancellation) nothing is published, so a
// deadline-truncated compile can never leak a partial program into a cache.
// A context that has already ended fails the compile before any work, so a
// short script is refused as surely as a long one. Not safe for concurrent
// calls on the same Program; callers serialize (the code cache
// singleflights, and per-run programs have one owner).
func CompileProgram(ctx context.Context, prog *Program) (err error) {
	if prog.code != nil {
		return nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(compileAbort)
			if !ok {
				panic(r)
			}
			err = ab.err
		}
	}()
	st := &compileState{ctx: ctx}
	c := newComp(st, "program")
	c.hoist(prog.Body)
	for _, s := range prog.Body {
		c.stmt(s, true)
	}
	ch := c.finish()
	for _, fc := range st.fnChunks {
		fc.fn.code = fc.ch
	}
	prog.code = ch
	return nil
}

// loopEntry is a compile-time record of an enclosing breakable construct.
// The depth/holds fields are the scope depth and value-stack holds (for-in
// iterators) to unwind to when jumping to the respective label.
type loopEntry struct {
	isLoop                bool // continue targets only loops, never switch
	breakLabel, contLabel int
	breakDepth, contDepth int
	breakHolds, contHolds int
}

type comp struct {
	st       *compileState
	ch       *chunk
	pending  int   // steps charged but not yet attached to an instruction
	labels   []int // label id -> pc, -1 while unbound
	atomIdx  map[string]int32
	constIdx map[constKey]int32
	depth    int // current lexical scope depth
	holds    int // value-stack slots held across statements (for-in iterators)
	loops    []loopEntry
}

func newComp(st *compileState, name string) *comp {
	return &comp{
		st:       st,
		ch:       &chunk{name: name},
		atomIdx:  map[string]int32{},
		constIdx: map[constKey]int32{},
	}
}

// charge records n interpreter steps to be paid by the next instruction.
func (c *comp) charge(n int) { c.pending += n }

// emit appends an instruction, attaching any pending step charge. Charges
// larger than the cost field are drained through explicit opCost chunks.
func (c *comp) emit(op opcode, a, b int32, line int) int {
	c.st.tick()
	for c.pending > 0xffff {
		c.ch.code = append(c.ch.code, instr{op: opCost, cost: 0xffff})
		c.pending -= 0xffff
	}
	pc := len(c.ch.code)
	c.ch.code = append(c.ch.code, instr{op: op, cost: uint16(c.pending), a: a, b: b, line: int32(line)})
	c.pending = 0
	return pc
}

// flush materializes a pending charge as a no-op. Called before binding a
// label so that back-edges do not re-pay a charge that belongs to code
// executed once (e.g. a while statement's own entry step).
func (c *comp) flush() {
	if c.pending > 0 {
		c.emit(opCost, 0, 0, 0)
	}
}

func (c *comp) newLabel() int {
	c.labels = append(c.labels, -1)
	return len(c.labels) - 1
}

func (c *comp) bind(l int) {
	c.flush()
	c.labels[l] = len(c.ch.code)
}

func (c *comp) atom(s string) int32 {
	if i, ok := c.atomIdx[s]; ok {
		return i
	}
	i := int32(len(c.ch.atoms))
	c.ch.atoms = append(c.ch.atoms, s)
	c.atomIdx[s] = i
	return i
}

// constKey is the interning key for the constant pool. negZero interns
// float64 -0 separately: -0 == +0 under Go's == (so the struct fields alone
// would collide), but the two are distinct JS values (1/-0 is -Infinity), so
// sharing a pool slot would silently rewrite one into the other (found by
// FuzzCompileEval).
type constKey struct {
	kind    Kind
	num     float64
	str     string
	negZero bool
}

func (c *comp) constant(v Value) int32 {
	key := constKey{kind: v.Kind(), num: v.num, str: v.str}
	if v.kind == KindNumber && v.num == 0 && math.Signbit(v.num) {
		key.negZero = true
	}
	// NaN never equals itself as a map key; it just interns once per use
	// (and is never inserted, so the map cannot grow unboundedly).
	if i, ok := c.constIdx[key]; ok {
		return i
	}
	i := int32(len(c.ch.consts))
	c.ch.consts = append(c.ch.consts, v)
	if !(v.kind == KindNumber && v.num != v.num) {
		c.constIdx[key] = i
	}
	return i
}

// unreachable panics on an AST shape the parser never produces (an unknown
// node type, operator or assignment target). It is an internal invariant,
// not an input error, so CompileProgram does not recover it;
// TestParserOperatorsCompile and FuzzParseRecover hold the parser to it.
func unreachable(format string, args ...any) {
	panic(fmt.Sprintf("minijs: compiler invariant: "+format, args...))
}

// finish flushes trailing charges, patches label operands to PCs, and
// returns the chunk.
func (c *comp) finish() *chunk {
	c.flush()
	for i := range c.ch.code {
		ins := &c.ch.code[i]
		switch ins.op {
		case opJump, opJumpFalse, opJumpTrue, opCaseJump, opForInNext:
			ins.a = int32(c.labels[ins.a])
		}
	}
	for i := range c.ch.trys {
		td := &c.ch.trys[i]
		if td.breakPC >= 0 {
			td.breakPC = int32(c.labels[td.breakPC])
		}
		if td.contPC >= 0 {
			td.contPC = int32(c.labels[td.contPC])
		}
	}
	return c.ch
}

// hoist emits the function-declaration hoisting the tree-walker performs on
// entry to a program or block. Hoisting charges no steps.
func (c *comp) hoist(body []Stmt) {
	for _, s := range body {
		if fd, ok := s.(*FuncDecl); ok {
			c.emit(opHoistFunc, c.funcIdx(fd.Fn), c.atom(fd.Name), fd.nodeLine())
		}
	}
}

// funcIdx interns fn in this chunk and compiles its body to a chunk of its
// own (recorded on the shared state; published by CompileProgram on success).
func (c *comp) funcIdx(fn *FuncLit) int32 {
	name := fn.Name
	if name == "" {
		name = "function"
	}
	sub := newComp(c.st, name)
	// callObject builds the call env (this/arguments/params) in Go; the
	// chunk starts at execBlock's block scope — which execBlock elides when
	// the body declares nothing, so the compiler elides it identically.
	if blockNeedsScope(fn.Body.Body) {
		sub.emit(opPushScope, 0, 0, fn.nodeLine())
		sub.depth++
		sub.hoist(fn.Body.Body)
	}
	for _, s := range fn.Body.Body {
		sub.stmt(s, false)
	}
	ch := sub.finish()
	c.st.fnChunks = append(c.st.fnChunks, fnChunk{fn: fn, ch: ch})
	i := int32(len(c.ch.funcs))
	c.ch.funcs = append(c.ch.funcs, fn)
	return i
}

// subChunk compiles a block statement as a standalone chunk (try bodies,
// catch and finally blocks), opening the block scope the tree-walker's
// execBlock would.
func (c *comp) subChunk(name string, b *BlockStmt) *chunk {
	sub := newComp(c.st, name)
	if blockNeedsScope(b.Body) {
		sub.emit(opPushScope, 0, 0, b.nodeLine())
		sub.depth++
		sub.hoist(b.Body)
	}
	for _, s := range b.Body {
		sub.stmt(s, false)
	}
	return sub.finish()
}

// emitBreak compiles a break statement at the current position: unwind
// scopes and held stack slots to the innermost breakable construct and jump,
// or signal ctlBreak out of the chunk when nothing encloses us here.
func (c *comp) emitBreak(line int) {
	if len(c.loops) == 0 {
		c.emit(opBreak, 0, 0, line)
		return
	}
	e := c.loops[len(c.loops)-1]
	for i := c.depth; i > e.breakDepth; i-- {
		c.emit(opPopScope, 0, 0, line)
	}
	for i := c.holds; i > e.breakHolds; i-- {
		c.emit(opPop, 0, 0, line)
	}
	c.emit(opJump, int32(e.breakLabel), 0, line)
}

func (c *comp) emitContinue(line int) {
	for i := len(c.loops) - 1; i >= 0; i-- {
		e := c.loops[i]
		if !e.isLoop {
			continue
		}
		for d := c.depth; d > e.contDepth; d-- {
			c.emit(opPopScope, 0, 0, line)
		}
		for h := c.holds; h > e.contHolds; h-- {
			c.emit(opPop, 0, 0, line)
		}
		c.emit(opJump, int32(e.contLabel), 0, line)
		return
	}
	c.emit(opContinue, 0, 0, line)
}

// stmt compiles one statement. visible marks statements whose completion
// value the tree-walker records as the program result: top-level statements
// and, transitively, the branches of top-level if statements (execStmt
// returns a value only for ExprStmt and IfStmt).
func (c *comp) stmt(s Stmt, visible bool) {
	c.charge(1) // execStmt entry step
	switch st := s.(type) {
	case *EmptyStmt:
		// charge carries to the next instruction (or a trailing opCost).

	case *VarDecl:
		for i, name := range st.Names {
			if st.Inits[i] != nil {
				c.expr(st.Inits[i])
			} else {
				c.emit(opConst, c.constant(Undefined()), 0, st.nodeLine())
			}
			c.emit(opDefine, c.atom(name), 0, st.nodeLine())
		}

	case *FuncDecl:
		c.emit(opHoistFunc, c.funcIdx(st.Fn), c.atom(st.Name), st.nodeLine())

	case *ExprStmt:
		c.expr(st.X)
		if visible {
			c.emit(opSetCompletion, 0, 0, st.nodeLine())
		} else {
			c.emit(opPop, 0, 0, st.nodeLine())
		}

	case *BlockStmt:
		// Blocks that declare nothing run in the enclosing scope, exactly as
		// execBlock elides its Env (same blockNeedsScope predicate).
		scoped := blockNeedsScope(st.Body)
		if scoped {
			c.emit(opPushScope, 0, 0, st.nodeLine())
			c.depth++
			c.hoist(st.Body)
		}
		for _, s2 := range st.Body {
			c.stmt(s2, false)
		}
		if scoped {
			c.depth--
			c.emit(opPopScope, 0, 0, st.nodeLine())
		}

	case *IfStmt:
		c.expr(st.Cond)
		elseL := c.newLabel()
		endL := c.newLabel()
		c.emit(opJumpFalse, int32(elseL), 0, st.nodeLine())
		c.stmt(st.Then, visible)
		if st.Else != nil {
			c.emit(opJump, int32(endL), 0, st.nodeLine())
			c.bind(elseL)
			c.stmt(st.Else, visible)
			c.bind(endL)
		} else {
			c.bind(elseL)
			c.bind(endL)
		}

	case *WhileStmt:
		condL := c.newLabel()
		endL := c.newLabel()
		c.bind(condL) // flushes the while statement's own entry step
		c.expr(st.Cond)
		c.emit(opJumpFalse, int32(endL), 0, st.nodeLine())
		c.pushLoop(loopEntry{
			isLoop: true, breakLabel: endL, contLabel: condL,
			breakDepth: c.depth, contDepth: c.depth,
			breakHolds: c.holds, contHolds: c.holds,
		})
		c.stmt(st.Body, false)
		c.popLoop()
		c.emit(opJump, int32(condL), 0, st.nodeLine())
		c.bind(endL)

	case *DoWhileStmt:
		bodyL := c.newLabel()
		condL := c.newLabel()
		endL := c.newLabel()
		c.bind(bodyL)
		c.pushLoop(loopEntry{
			isLoop: true, breakLabel: endL, contLabel: condL,
			breakDepth: c.depth, contDepth: c.depth,
			breakHolds: c.holds, contHolds: c.holds,
		})
		c.stmt(st.Body, false)
		c.popLoop()
		c.bind(condL)
		c.expr(st.Cond)
		c.emit(opJumpTrue, int32(bodyL), 0, st.nodeLine())
		c.bind(endL)

	case *ForStmt:
		outerDepth := c.depth
		scoped := forNeedsScope(st)
		if scoped {
			c.emit(opPushScope, 0, 0, st.nodeLine()) // loopEnv, created before init
			c.depth++
		}
		if st.Init != nil {
			c.stmt(st.Init, false)
		}
		condL := c.newLabel()
		contL := c.newLabel()
		endPopL := c.newLabel()
		afterL := c.newLabel()
		c.bind(condL)
		if st.Cond != nil {
			c.expr(st.Cond)
			c.emit(opJumpFalse, int32(endPopL), 0, st.nodeLine())
		}
		c.pushLoop(loopEntry{
			isLoop: true, breakLabel: afterL, contLabel: contL,
			breakDepth: outerDepth, contDepth: c.depth,
			breakHolds: c.holds, contHolds: c.holds,
		})
		c.stmt(st.Body, false)
		c.popLoop()
		c.bind(contL)
		if st.Post != nil {
			c.expr(st.Post)
			c.emit(opPop, 0, 0, st.nodeLine())
		}
		c.emit(opJump, int32(condL), 0, st.nodeLine())
		c.bind(endPopL)
		if scoped {
			c.emit(opPopScope, 0, 0, st.nodeLine())
			c.depth--
		}
		c.bind(afterL)

	case *ForInStmt:
		c.expr(st.Obj)
		outerDepth, outerHolds := c.depth, c.holds
		c.emit(opForInInit, 0, 0, st.nodeLine())
		c.holds++
		scoped := forInNeedsScope(st)
		if scoped {
			c.emit(opPushScope, 0, 0, st.nodeLine())
			c.depth++
		}
		if st.Decl {
			c.emit(opConst, c.constant(Undefined()), 0, st.nodeLine())
			c.emit(opDefine, c.atom(st.VarName), 0, st.nodeLine())
		}
		nextL := c.newLabel()
		endL := c.newLabel()
		afterL := c.newLabel()
		c.bind(nextL)
		c.emit(opForInNext, int32(endL), 0, st.nodeLine())
		if st.Decl {
			c.emit(opDefine, c.atom(st.VarName), 0, st.nodeLine())
		} else {
			c.emit(opAssignVar, c.atom(st.VarName), 0, st.nodeLine())
		}
		c.pushLoop(loopEntry{
			isLoop: true, breakLabel: afterL, contLabel: nextL,
			breakDepth: outerDepth, contDepth: c.depth,
			breakHolds: outerHolds, contHolds: c.holds,
		})
		c.stmt(st.Body, false)
		c.popLoop()
		c.emit(opJump, int32(nextL), 0, st.nodeLine())
		c.bind(endL)
		if scoped {
			c.emit(opPopScope, 0, 0, st.nodeLine())
			c.depth--
		}
		c.emit(opPop, 0, 0, st.nodeLine()) // iterator
		c.holds--
		c.bind(afterL)

	case *ReturnStmt:
		if st.Value != nil {
			c.expr(st.Value)
		} else {
			c.emit(opConst, c.constant(Undefined()), 0, st.nodeLine())
		}
		c.emit(opReturn, 0, 0, st.nodeLine())

	case *BreakStmt:
		c.emitBreak(st.nodeLine())

	case *ContinueStmt:
		c.emitContinue(st.nodeLine())

	case *ThrowStmt:
		c.expr(st.Value)
		c.emit(opThrow, 0, 0, st.nodeLine())

	case *SwitchStmt:
		c.compileSwitch(st)

	case *TryStmt:
		c.compileTry(st)

	default:
		unreachable("cannot compile statement %T", s)
	}
}

func (c *comp) pushLoop(e loopEntry) { c.loops = append(c.loops, e) }
func (c *comp) popLoop()             { c.loops = c.loops[:len(c.loops)-1] }

// compileSwitch flattens switch into a test sequence over the tag (kept on
// the stack while tests run), per-case preludes that drop the tag and open
// the single switch scope, and fallthrough bodies. Tests run in source
// order, the default clause is skipped during testing, and testing stops at
// the first match — exactly the tree-walker's order of evaluation.
func (c *comp) compileSwitch(st *SwitchStmt) {
	c.expr(st.Tag)
	preL := make([]int, len(st.Cases))
	bodyL := make([]int, len(st.Cases))
	for i := range st.Cases {
		preL[i] = c.newLabel()
		bodyL[i] = c.newLabel()
	}
	noneL := c.newLabel()
	endPopL := c.newLabel()
	afterL := c.newLabel()
	defaultIdx := -1
	for i, cs := range st.Cases {
		if cs.Test == nil {
			defaultIdx = i
			continue
		}
		c.expr(cs.Test)
		c.emit(opCaseJump, int32(preL[i]), 0, st.nodeLine())
	}
	if defaultIdx >= 0 {
		c.emit(opJump, int32(preL[defaultIdx]), 0, st.nodeLine())
	} else {
		c.emit(opJump, int32(noneL), 0, st.nodeLine())
	}
	for i := range st.Cases {
		c.bind(preL[i])
		c.emit(opPop, 0, 0, st.nodeLine()) // tag
		c.emit(opPushScope, 0, 0, st.nodeLine())
		c.emit(opJump, int32(bodyL[i]), 0, st.nodeLine())
	}
	outerDepth := c.depth
	c.depth++ // bodies run inside the switch scope
	c.pushLoop(loopEntry{
		isLoop: false, breakLabel: afterL,
		breakDepth: outerDepth, breakHolds: c.holds,
	})
	for i, cs := range st.Cases {
		c.bind(bodyL[i])
		for _, s2 := range cs.Body {
			c.stmt(s2, false)
		}
	}
	c.popLoop()
	c.depth--
	c.bind(endPopL)
	c.emit(opPopScope, 0, 0, st.nodeLine())
	c.emit(opJump, int32(afterL), 0, st.nodeLine())
	c.bind(noneL)
	c.emit(opPop, 0, 0, st.nodeLine()) // tag, no match and no default
	c.bind(afterL)
}

// compileTry lowers try/catch/finally to an opTry over sub-chunks plus stub
// code that routes break/continue escaping the statement to the innermost
// enclosing loop of this chunk (or propagates them out when there is none).
func (c *comp) compileTry(st *TryStmt) {
	td := tryDesc{
		body:    c.subChunk("try", st.Body),
		breakPC: -1,
		contPC:  -1,
	}
	if st.Catch != nil {
		td.catchAtom = c.atom(st.CatchName)
		td.catch = c.subChunk("catch", st.Catch)
	}
	if st.Finally != nil {
		td.finally = c.subChunk("finally", st.Finally)
	}
	needBreak, needCont := false, false
	for i := len(c.loops) - 1; i >= 0; i-- {
		if !needBreak {
			needBreak = true
		}
		if c.loops[i].isLoop {
			needCont = true
			break
		}
	}
	var breakL, contL int
	if needBreak {
		breakL = c.newLabel()
		td.breakPC = int32(breakL)
	}
	if needCont {
		contL = c.newLabel()
		td.contPC = int32(contL)
	}
	idx := int32(len(c.ch.trys))
	c.ch.trys = append(c.ch.trys, td)
	c.emit(opTry, idx, 0, st.nodeLine())
	afterL := c.newLabel()
	c.emit(opJump, int32(afterL), 0, st.nodeLine())
	if needBreak {
		c.bind(breakL)
		c.emitBreak(st.nodeLine())
	}
	if needCont {
		c.bind(contL)
		c.emitContinue(st.nodeLine())
	}
	c.bind(afterL)
	// Labels inside tryDesc are patched to PCs in finish().
	c.ch.trys[idx] = td
}

// expr compiles one expression. Every eval() entry step the tree-walker
// would charge is attached to the node's first instruction; constant
// folding sums the steps of the folded subtree onto the single opConst.
func (c *comp) expr(e Expr) {
	if v, steps, ok := foldExpr(e); ok {
		c.charge(steps)
		c.emit(opConst, c.constant(v), 0, e.nodeLine())
		return
	}
	c.charge(1) // eval entry step
	switch x := e.(type) {
	case *NumberLit:
		c.emit(opConst, c.constant(Num(x.Value)), 0, x.nodeLine())
	case *StringLit:
		c.emit(opConst, c.constant(Str(x.Value)), 0, x.nodeLine())
	case *BoolLit:
		c.emit(opConst, c.constant(Bool(x.Value)), 0, x.nodeLine())
	case *NullLit:
		c.emit(opConst, c.constant(Null()), 0, x.nodeLine())
	case *UndefinedLit:
		c.emit(opConst, c.constant(Undefined()), 0, x.nodeLine())
	case *ThisExpr:
		c.emit(opThis, 0, 0, x.nodeLine())
	case *Ident:
		c.emit(opGetVar, c.atom(x.Name), 0, x.nodeLine())

	case *ArrayLit:
		for _, el := range x.Elems {
			c.expr(el)
		}
		c.emit(opMakeArray, int32(len(x.Elems)), 0, x.nodeLine())

	case *ObjectLit:
		for _, v := range x.Values {
			c.expr(v)
		}
		ki := int32(len(c.ch.keys))
		c.ch.keys = append(c.ch.keys, x.Keys)
		c.emit(opMakeObject, ki, 0, x.nodeLine())

	case *FuncLit:
		c.emit(opMakeFunc, c.funcIdx(x), 0, x.nodeLine())

	case *RegexLit:
		ri := int32(len(c.ch.regexes))
		c.ch.regexes = append(c.ch.regexes, x)
		c.emit(opMakeRegex, ri, 0, x.nodeLine())

	case *UnaryExpr:
		c.compileUnary(x)

	case *UpdateExpr:
		c.compileUpdate(x)

	case *BinaryExpr:
		c.expr(x.X)
		c.expr(x.Y)
		c.emit(opBinary, c.binOp(x.Op), 0, x.nodeLine())

	case *LogicalExpr:
		c.expr(x.X)
		endL := c.newLabel()
		c.emit(opDup, 0, 0, x.nodeLine())
		if x.Op == "&&" {
			c.emit(opJumpFalse, int32(endL), 0, x.nodeLine())
		} else {
			c.emit(opJumpTrue, int32(endL), 0, x.nodeLine())
		}
		c.emit(opPop, 0, 0, x.nodeLine())
		c.expr(x.Y)
		c.bind(endL)

	case *CondExpr:
		c.expr(x.Cond)
		elseL := c.newLabel()
		endL := c.newLabel()
		c.emit(opJumpFalse, int32(elseL), 0, x.nodeLine())
		c.expr(x.Then)
		c.emit(opJump, int32(endL), 0, x.nodeLine())
		c.bind(elseL)
		c.expr(x.Else)
		c.bind(endL)

	case *AssignExpr:
		c.compileAssign(x)

	case *CallExpr:
		c.compileCall(x)

	case *NewExpr:
		c.expr(x.Callee)
		for _, a := range x.Args {
			c.expr(a)
		}
		c.emit(opNew, int32(len(x.Args)), 0, x.nodeLine())

	case *MemberExpr:
		c.expr(x.Obj)
		c.emit(opGetMember, c.atom(x.Name), 0, x.nodeLine())

	case *IndexExpr:
		c.expr(x.Obj)
		c.expr(x.Index)
		c.emit(opGetIndex, 0, 0, x.nodeLine())

	default:
		unreachable("cannot compile expression %T", e)
	}
}

func (c *comp) binOp(op string) int32 {
	i, ok := binaryOpIdx[op]
	if !ok {
		unreachable("cannot compile binary op %q", op)
	}
	return i
}

func (c *comp) compileUnary(x *UnaryExpr) {
	// typeof tolerates undefined identifiers without evaluating them, and
	// delete evaluates only a member expression's object; both mirror
	// evalUnary's special cases, including their step accounting.
	if x.Op == "typeof" {
		if id, ok := x.X.(*Ident); ok {
			c.emit(opTypeofVar, c.atom(id.Name), 0, x.nodeLine())
			return
		}
	}
	if x.Op == "delete" {
		if m, ok := x.X.(*MemberExpr); ok {
			c.expr(m.Obj)
			c.emit(opDelMember, c.atom(m.Name), 0, m.nodeLine())
			return
		}
		c.emit(opConst, c.constant(Bool(true)), 0, x.nodeLine())
		return
	}
	i, ok := unaryOpIdx[x.Op]
	if !ok {
		unreachable("cannot compile unary op %q", x.Op)
	}
	c.expr(x.X)
	c.emit(opUnary, i, 0, x.nodeLine())
}

func (c *comp) compileUpdate(x *UpdateExpr) {
	prefix := int32(0)
	if x.Prefix {
		prefix = 1
	}
	delta := int32(1)
	if x.Op == "--" {
		delta = -1
	}
	switch t := x.X.(type) {
	case *Ident:
		c.charge(1) // eval of the target identifier
		c.emit(opGetVar, c.atom(t.Name), 0, t.nodeLine())
		c.emit(opUpdateNum, delta, prefix, x.nodeLine())
		c.emit(opAssignVar, c.atom(t.Name), 0, t.nodeLine())
	case *MemberExpr:
		c.charge(1) // eval of the member expression
		c.expr(t.Obj)
		c.emit(opGetMember, c.atom(t.Name), 0, t.nodeLine())
		c.emit(opUpdateNum, delta, prefix, x.nodeLine())
		// assignTo re-evaluates the object — charges and side effects both
		// happen again, matching the tree-walker.
		c.expr(t.Obj)
		c.emit(opSetMember, c.atom(t.Name), 0, t.nodeLine())
	case *IndexExpr:
		c.charge(1)
		c.expr(t.Obj)
		c.expr(t.Index)
		c.emit(opGetIndex, 0, 0, t.nodeLine())
		c.emit(opUpdateNum, delta, prefix, x.nodeLine())
		c.expr(t.Obj)
		c.expr(t.Index)
		c.emit(opSetIndex, 0, 0, t.nodeLine())
	default:
		unreachable("cannot compile update target %T", x.X)
	}
}

func (c *comp) compileAssign(x *AssignExpr) {
	// evalAssign evaluates the value first, then (for compound ops) the
	// target, then re-evaluates the target's object/index for the store.
	c.expr(x.Value)
	if x.Op != "=" {
		binOp := c.binOp(x.Op[:len(x.Op)-1])
		switch t := x.Target.(type) {
		case *Ident:
			c.charge(1)
			c.emit(opGetVar, c.atom(t.Name), 0, t.nodeLine())
		case *MemberExpr:
			c.charge(1)
			c.expr(t.Obj)
			c.emit(opGetMember, c.atom(t.Name), 0, t.nodeLine())
		case *IndexExpr:
			c.charge(1)
			c.expr(t.Obj)
			c.expr(t.Index)
			c.emit(opGetIndex, 0, 0, t.nodeLine())
		default:
			unreachable("cannot compile assignment target %T", x.Target)
		}
		// Stack is [value, old]; applyBinary takes (old, value).
		c.emit(opSwap, 0, 0, x.nodeLine())
		c.emit(opBinary, binOp, 0, x.nodeLine())
	}
	c.emit(opDup, 0, 0, x.nodeLine()) // assignment yields the stored value
	switch t := x.Target.(type) {
	case *Ident:
		c.emit(opAssignVar, c.atom(t.Name), 0, t.nodeLine())
	case *MemberExpr:
		c.expr(t.Obj)
		c.emit(opSetMember, c.atom(t.Name), 0, t.nodeLine())
	case *IndexExpr:
		c.expr(t.Obj)
		c.expr(t.Index)
		c.emit(opSetIndex, 0, 0, t.nodeLine())
	default:
		unreachable("cannot compile assignment target %T", x.Target)
	}
}

func (c *comp) compileCall(x *CallExpr) {
	// Method calls evaluate the receiver once and use it as `this`; the
	// member/index node itself is never eval()ed, so it charges no step.
	switch callee := x.Callee.(type) {
	case *MemberExpr:
		c.expr(callee.Obj)
		c.emit(opDup, 0, 0, callee.nodeLine())
		c.emit(opGetMember, c.atom(callee.Name), 0, callee.nodeLine())
	case *IndexExpr:
		c.expr(callee.Obj)
		c.emit(opDup, 0, 0, callee.nodeLine())
		c.expr(callee.Index)
		c.emit(opGetIndex, 0, 0, callee.nodeLine())
	default:
		c.emit(opConst, c.constant(Undefined()), 0, x.nodeLine()) // this
		c.expr(x.Callee)
	}
	for _, a := range x.Args {
		c.expr(a)
	}
	c.emit(opCall, int32(len(x.Args)), c.atom(calleeName(x.Callee)), x.nodeLine())
}

// foldExpr evaluates a side-effect-free constant subtree at compile time.
// It returns the folded value, the number of interpreter steps the
// tree-walker would have charged evaluating it, and whether folding applies.
// Anything that could throw (string-length overflow, `in` on non-objects) or
// allocate fresh objects per evaluation is left to run time.
func foldExpr(e Expr) (Value, int, bool) {
	switch x := e.(type) {
	case *NumberLit:
		return Num(x.Value), 1, true
	case *StringLit:
		return Str(x.Value), 1, true
	case *BoolLit:
		return Bool(x.Value), 1, true
	case *NullLit:
		return Null(), 1, true
	case *UndefinedLit:
		return Undefined(), 1, true
	case *UnaryExpr:
		if _, isIdent := x.X.(*Ident); isIdent && x.Op == "typeof" {
			return Value{}, 0, false
		}
		v, steps, ok := foldExpr(x.X)
		if !ok {
			return Value{}, 0, false
		}
		switch x.Op {
		case "-":
			return Num(-ToNumber(v)), steps + 1, true
		case "+":
			return Num(ToNumber(v)), steps + 1, true
		case "!":
			return Bool(!Truthy(v)), steps + 1, true
		case "~":
			return Num(float64(^toInt32(v))), steps + 1, true
		case "typeof":
			return Str(TypeOf(v)), steps + 1, true
		}
		return Value{}, 0, false
	case *BinaryExpr:
		a, sa, ok := foldExpr(x.X)
		if !ok {
			return Value{}, 0, false
		}
		b, sb, ok := foldExpr(x.Y)
		if !ok {
			return Value{}, 0, false
		}
		v, err := applyBinary(x.Op, a, b, x.nodeLine())
		if err != nil {
			return Value{}, 0, false
		}
		return v, sa + sb + 1, true
	case *LogicalExpr:
		a, sa, ok := foldExpr(x.X)
		if !ok {
			return Value{}, 0, false
		}
		take := Truthy(a)
		if x.Op == "||" {
			take = !take
		}
		if !take {
			// Short-circuit: the right side is never evaluated, so it does
			// not need to be foldable and charges nothing.
			return a, sa + 1, true
		}
		b, sb, ok := foldExpr(x.Y)
		if !ok {
			return Value{}, 0, false
		}
		return b, sa + sb + 1, true
	case *CondExpr:
		cv, sc, ok := foldExpr(x.Cond)
		if !ok {
			return Value{}, 0, false
		}
		branch := x.Then
		if !Truthy(cv) {
			branch = x.Else
		}
		v, sb, ok := foldExpr(branch)
		if !ok {
			return Value{}, 0, false
		}
		return v, sc + sb + 1, true
	}
	return Value{}, 0, false
}
