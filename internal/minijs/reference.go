package minijs

// reference.go is the tree-walking interpreter: the seed engine, kept as the
// executable specification the compiler and VM are held to. Production code
// runs only the VM (New); differential tests and the seed-engine benchmark
// build a reference interpreter with NewReference and compare the two on
// value, error, globals and step budget.

import (
	"errors"
	"fmt"
)

// NewReference returns an interpreter like New's that tree-walks the AST
// instead of running bytecode. It is built only by differential tests and
// the seed-engine benchmark; production code uses New.
func NewReference() *Interp {
	in := New()
	in.walk = true
	return in
}

// walkProgram is RunProgram on the reference engine.
func (in *Interp) walkProgram(prog *Program) (Value, error) {
	last := Undefined()
	// Hoist function declarations, as JS does.
	for _, s := range prog.Body {
		if fd, ok := s.(*FuncDecl); ok {
			in.Global.Define(fd.Name, in.makeFunction(fd.Fn, in.Global).Value())
		}
	}
	for _, s := range prog.Body {
		v, ctl, err := in.execStmt(s, in.Global)
		if err != nil {
			return Undefined(), err
		}
		if ctl != ctlNone {
			// return/break/continue at top level: stop quietly.
			return last, nil
		}
		if v.kind != KindEmpty {
			last = v
		}
	}
	return last, nil
}

// step charges one unit of the budget: one per statement and one per
// expression node the walker visits.
func (in *Interp) step() error {
	in.Budget--
	if in.Budget < 0 {
		return ErrBudget
	}
	return nil
}

// execStmt executes a statement. The Value return is the statement's
// completion value (used for return statements and top-level expressions);
// the zero Value means "no completion value".
func (in *Interp) execStmt(s Stmt, env *Env) (Value, ctl, error) {
	if err := in.step(); err != nil {
		return Value{}, ctlNone, err
	}
	switch st := s.(type) {
	case *EmptyStmt:
		return Value{}, ctlNone, nil

	case *VarDecl:
		for i, name := range st.Names {
			v := Undefined()
			if st.Inits[i] != nil {
				var err error
				v, err = in.eval(st.Inits[i], env)
				if err != nil {
					return Value{}, ctlNone, err
				}
			}
			env.Define(name, v)
		}
		return Value{}, ctlNone, nil

	case *FuncDecl:
		env.Define(st.Name, in.makeFunction(st.Fn, env).Value())
		return Value{}, ctlNone, nil

	case *ExprStmt:
		v, err := in.eval(st.X, env)
		return v, ctlNone, err

	case *BlockStmt:
		return in.execBlock(st, env)

	case *IfStmt:
		cond, err := in.eval(st.Cond, env)
		if err != nil {
			return Value{}, ctlNone, err
		}
		if Truthy(cond) {
			return in.execStmt(st.Then, env)
		}
		if st.Else != nil {
			return in.execStmt(st.Else, env)
		}
		return Value{}, ctlNone, nil

	case *WhileStmt:
		for {
			cond, err := in.eval(st.Cond, env)
			if err != nil {
				return Value{}, ctlNone, err
			}
			if !Truthy(cond) {
				return Value{}, ctlNone, nil
			}
			v, c, err := in.execStmt(st.Body, env)
			if err != nil {
				return Value{}, ctlNone, err
			}
			switch c {
			case ctlBreak:
				return Value{}, ctlNone, nil
			case ctlReturn:
				return v, ctlReturn, nil
			}
		}

	case *DoWhileStmt:
		for {
			v, c, err := in.execStmt(st.Body, env)
			if err != nil {
				return Value{}, ctlNone, err
			}
			switch c {
			case ctlBreak:
				return Value{}, ctlNone, nil
			case ctlReturn:
				return v, ctlReturn, nil
			}
			cond, err := in.eval(st.Cond, env)
			if err != nil {
				return Value{}, ctlNone, err
			}
			if !Truthy(cond) {
				return Value{}, ctlNone, nil
			}
		}

	case *ForStmt:
		loopEnv := env
		if forNeedsScope(st) {
			loopEnv = NewEnv(env)
		}
		if st.Init != nil {
			if _, _, err := in.execStmt(st.Init, loopEnv); err != nil {
				return Value{}, ctlNone, err
			}
		}
		for {
			if st.Cond != nil {
				cond, err := in.eval(st.Cond, loopEnv)
				if err != nil {
					return Value{}, ctlNone, err
				}
				if !Truthy(cond) {
					return Value{}, ctlNone, nil
				}
			}
			v, c, err := in.execStmt(st.Body, loopEnv)
			if err != nil {
				return Value{}, ctlNone, err
			}
			if c == ctlBreak {
				return Value{}, ctlNone, nil
			}
			if c == ctlReturn {
				return v, ctlReturn, nil
			}
			if st.Post != nil {
				if _, err := in.eval(st.Post, loopEnv); err != nil {
					return Value{}, ctlNone, err
				}
			}
		}

	case *ForInStmt:
		objV, err := in.eval(st.Obj, env)
		if err != nil {
			return Value{}, ctlNone, err
		}
		obj := objV.Obj()
		if obj == nil {
			return Value{}, ctlNone, nil // for-in over non-object iterates nothing
		}
		loopEnv := env
		if forInNeedsScope(st) {
			loopEnv = NewEnv(env)
		}
		if st.Decl {
			loopEnv.Define(st.VarName, Undefined())
		}
		for _, key := range obj.Keys() {
			if st.Decl {
				loopEnv.Define(st.VarName, Str(key))
			} else {
				loopEnv.Assign(st.VarName, Str(key))
			}
			v, c, err := in.execStmt(st.Body, loopEnv)
			if err != nil {
				return Value{}, ctlNone, err
			}
			if c == ctlBreak {
				return Value{}, ctlNone, nil
			}
			if c == ctlReturn {
				return v, ctlReturn, nil
			}
		}
		return Value{}, ctlNone, nil

	case *ReturnStmt:
		v := Undefined()
		if st.Value != nil {
			var err error
			v, err = in.eval(st.Value, env)
			if err != nil {
				return Value{}, ctlNone, err
			}
		}
		return v, ctlReturn, nil

	case *BreakStmt:
		return Value{}, ctlBreak, nil

	case *ContinueStmt:
		return Value{}, ctlContinue, nil

	case *ThrowStmt:
		v, err := in.eval(st.Value, env)
		if err != nil {
			return Value{}, ctlNone, err
		}
		return Value{}, ctlNone, &ThrowError{Value: v, Line: st.nodeLine()}

	case *SwitchStmt:
		tag, err := in.eval(st.Tag, env)
		if err != nil {
			return Value{}, ctlNone, err
		}
		// Find the matching clause (or default), then execute from there,
		// falling through until a break.
		start := -1
		defaultIdx := -1
		for i, c := range st.Cases {
			if c.Test == nil {
				defaultIdx = i
				continue
			}
			tv, err := in.eval(c.Test, env)
			if err != nil {
				return Value{}, ctlNone, err
			}
			if StrictEquals(tag, tv) {
				start = i
				break
			}
		}
		if start < 0 {
			start = defaultIdx
		}
		if start < 0 {
			return Value{}, ctlNone, nil
		}
		switchEnv := NewEnv(env)
		for i := start; i < len(st.Cases); i++ {
			for _, s2 := range st.Cases[i].Body {
				v, c, err := in.execStmt(s2, switchEnv)
				if err != nil {
					return Value{}, ctlNone, err
				}
				switch c {
				case ctlBreak:
					return Value{}, ctlNone, nil
				case ctlReturn, ctlContinue:
					return v, c, nil
				}
			}
		}
		return Value{}, ctlNone, nil

	case *TryStmt:
		v, c, err := in.execBlock(st.Body, env)
		var throwErr *ThrowError
		if err != nil && errors.As(err, &throwErr) && st.Catch != nil {
			catchEnv := NewEnv(env)
			catchEnv.Define(st.CatchName, throwErr.Value)
			v, c, err = in.execBlock(st.Catch, catchEnv)
		}
		if st.Finally != nil {
			fv, fc, ferr := in.execBlock(st.Finally, env)
			if ferr != nil {
				return Value{}, ctlNone, ferr
			}
			if fc != ctlNone {
				return fv, fc, nil
			}
		}
		return v, c, err
	}
	return Value{}, ctlNone, fmt.Errorf("minijs: unknown statement %T", s)
}

func (in *Interp) execBlock(b *BlockStmt, env *Env) (Value, ctl, error) {
	blockEnv := env
	if blockNeedsScope(b.Body) {
		blockEnv = NewEnv(env)
		// Hoist function declarations within the block.
		for _, s := range b.Body {
			if fd, ok := s.(*FuncDecl); ok {
				blockEnv.Define(fd.Name, in.makeFunction(fd.Fn, blockEnv).Value())
			}
		}
	}
	for _, s := range b.Body {
		v, c, err := in.execStmt(s, blockEnv)
		if err != nil {
			return Value{}, ctlNone, err
		}
		if c != ctlNone {
			return v, c, nil
		}
	}
	return Value{}, ctlNone, nil
}

// eval evaluates an expression.
func (in *Interp) eval(e Expr, env *Env) (Value, error) {
	if err := in.step(); err != nil {
		return Value{}, err
	}
	switch x := e.(type) {
	case *NumberLit:
		return Num(x.Value), nil
	case *StringLit:
		return Str(x.Value), nil
	case *BoolLit:
		return Bool(x.Value), nil
	case *NullLit:
		return Null(), nil
	case *UndefinedLit:
		return Undefined(), nil
	case *ThisExpr:
		if v, ok := env.Lookup("this"); ok {
			return v, nil
		}
		return Undefined(), nil
	case *Ident:
		if v, ok := env.Lookup(x.Name); ok {
			return v, nil
		}
		return Value{}, throwStr("ReferenceError: "+x.Name+" is not defined", x.nodeLine())

	case *ArrayLit:
		arr := in.NewArray()
		if len(x.Elems) > 0 {
			arr.Elems = make([]Value, 0, len(x.Elems))
		}
		for _, el := range x.Elems {
			v, err := in.eval(el, env)
			if err != nil {
				return Value{}, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return arr.Value(), nil

	case *ObjectLit:
		obj := in.NewObject()
		for i, k := range x.Keys {
			v, err := in.eval(x.Values[i], env)
			if err != nil {
				return Value{}, err
			}
			obj.Props[k] = v
		}
		return obj.Value(), nil

	case *FuncLit:
		return in.makeFunction(x, env).Value(), nil

	case *RegexLit:
		return newRegexObject(x).Value(), nil

	case *UnaryExpr:
		return in.evalUnary(x, env)

	case *UpdateExpr:
		return in.evalUpdate(x, env)

	case *BinaryExpr:
		return in.evalBinary(x, env)

	case *LogicalExpr:
		left, err := in.eval(x.X, env)
		if err != nil {
			return Value{}, err
		}
		if x.Op == "&&" {
			if !Truthy(left) {
				return left, nil
			}
			return in.eval(x.Y, env)
		}
		if Truthy(left) {
			return left, nil
		}
		return in.eval(x.Y, env)

	case *CondExpr:
		cond, err := in.eval(x.Cond, env)
		if err != nil {
			return Value{}, err
		}
		if Truthy(cond) {
			return in.eval(x.Then, env)
		}
		return in.eval(x.Else, env)

	case *AssignExpr:
		return in.evalAssign(x, env)

	case *CallExpr:
		return in.evalCall(x, env)

	case *NewExpr:
		return in.evalNew(x, env)

	case *MemberExpr:
		obj, err := in.eval(x.Obj, env)
		if err != nil {
			return Value{}, err
		}
		return in.getMember(obj, x.Name, x.nodeLine())

	case *IndexExpr:
		obj, err := in.eval(x.Obj, env)
		if err != nil {
			return Value{}, err
		}
		idx, err := in.eval(x.Index, env)
		if err != nil {
			return Value{}, err
		}
		return in.getIndex(obj, idx, x.nodeLine())
	}
	return Value{}, fmt.Errorf("minijs: unknown expression %T", e)
}

func (in *Interp) evalUnary(x *UnaryExpr, env *Env) (Value, error) {
	if x.Op == "typeof" {
		// typeof tolerates undefined identifiers.
		if id, ok := x.X.(*Ident); ok {
			if v, found := env.Lookup(id.Name); found {
				return Str(TypeOf(v)), nil
			}
			return Str("undefined"), nil
		}
	}
	if x.Op == "delete" {
		if m, ok := x.X.(*MemberExpr); ok {
			objV, err := in.eval(m.Obj, env)
			if err != nil {
				return Value{}, err
			}
			if obj := objV.Obj(); obj != nil {
				obj.Delete(m.Name)
			}
			return Bool(true), nil
		}
		return Bool(true), nil
	}
	v, err := in.eval(x.X, env)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "-":
		return Num(-ToNumber(v)), nil
	case "+":
		return Num(ToNumber(v)), nil
	case "!":
		return Bool(!Truthy(v)), nil
	case "~":
		return Num(float64(^toInt32(v))), nil
	case "typeof":
		return Str(TypeOf(v)), nil
	}
	return Value{}, fmt.Errorf("minijs: unknown unary op %q", x.Op)
}

func (in *Interp) evalUpdate(x *UpdateExpr, env *Env) (Value, error) {
	old, err := in.eval(x.X, env)
	if err != nil {
		return Value{}, err
	}
	n := ToNumber(old)
	var next float64
	if x.Op == "++" {
		next = n + 1
	} else {
		next = n - 1
	}
	if err := in.assignTo(x.X, Num(next), env); err != nil {
		return Value{}, err
	}
	if x.Prefix {
		return Num(next), nil
	}
	return Num(n), nil
}

func (in *Interp) evalBinary(x *BinaryExpr, env *Env) (Value, error) {
	a, err := in.eval(x.X, env)
	if err != nil {
		return Value{}, err
	}
	b, err := in.eval(x.Y, env)
	if err != nil {
		return Value{}, err
	}
	return applyBinary(x.Op, a, b, x.nodeLine())
}

func (in *Interp) evalAssign(x *AssignExpr, env *Env) (Value, error) {
	val, err := in.eval(x.Value, env)
	if err != nil {
		return Value{}, err
	}
	if x.Op != "=" {
		old, err := in.eval(x.Target, env)
		if err != nil {
			return Value{}, err
		}
		binOp := x.Op[:len(x.Op)-1] // "+=" -> "+"
		val, err = applyBinary(binOp, old, val, x.nodeLine())
		if err != nil {
			return Value{}, err
		}
	}
	if err := in.assignTo(x.Target, val, env); err != nil {
		return Value{}, err
	}
	return val, nil
}

func (in *Interp) assignTo(target Expr, val Value, env *Env) error {
	switch t := target.(type) {
	case *Ident:
		env.Assign(t.Name, val)
		return nil
	case *MemberExpr:
		objV, err := in.eval(t.Obj, env)
		if err != nil {
			return err
		}
		return in.setMemberValue(objV, t.Name, val, t.nodeLine())
	case *IndexExpr:
		objV, err := in.eval(t.Obj, env)
		if err != nil {
			return err
		}
		idxV, err := in.eval(t.Index, env)
		if err != nil {
			return err
		}
		return in.setIndexValue(objV, idxV, val, t.nodeLine())
	}
	return fmt.Errorf("minijs: invalid assignment target %T", target)
}

func (in *Interp) evalCall(x *CallExpr, env *Env) (Value, error) {
	this := Undefined()
	var fnV Value
	var err error

	switch callee := x.Callee.(type) {
	case *MemberExpr:
		this, err = in.eval(callee.Obj, env)
		if err != nil {
			return Value{}, err
		}
		fnV, err = in.getMember(this, callee.Name, callee.nodeLine())
		if err != nil {
			return Value{}, err
		}
	case *IndexExpr:
		this, err = in.eval(callee.Obj, env)
		if err != nil {
			return Value{}, err
		}
		idx, err2 := in.eval(callee.Index, env)
		if err2 != nil {
			return Value{}, err2
		}
		fnV, err = in.getIndex(this, idx, callee.nodeLine())
		if err != nil {
			return Value{}, err
		}
	default:
		fnV, err = in.eval(x.Callee, env)
		if err != nil {
			return Value{}, err
		}
	}

	var args []Value
	if len(x.Args) > 0 {
		args = make([]Value, len(x.Args))
		for i, a := range x.Args {
			args[i], err = in.eval(a, env)
			if err != nil {
				return Value{}, err
			}
		}
	}

	fn := fnV.Obj()
	if fn == nil || !fn.IsFunction() {
		return Value{}, throwStr("TypeError: "+calleeName(x.Callee)+" is not a function", x.nodeLine())
	}
	return in.callObject(fn, this, args, x.nodeLine())
}

func (in *Interp) evalNew(x *NewExpr, env *Env) (Value, error) {
	fnV, err := in.eval(x.Callee, env)
	if err != nil {
		return Value{}, err
	}
	// Arguments are evaluated before the constructor check (ES EvaluateNew
	// order) — the VM necessarily does the same, and step parity between the
	// engines depends on it.
	var args []Value
	if len(x.Args) > 0 {
		args = make([]Value, len(x.Args))
		for i, a := range x.Args {
			args[i], err = in.eval(a, env)
			if err != nil {
				return Value{}, err
			}
		}
	}
	fn := fnV.Obj()
	if fn == nil || !fn.IsFunction() {
		return Value{}, throwStr("TypeError: not a constructor", x.nodeLine())
	}
	this := in.NewObject()
	ret, err := in.callObject(fn, this.Value(), args, x.nodeLine())
	if err != nil {
		return Value{}, err
	}
	// If the constructor returned an object, that wins; otherwise `this`.
	if obj := ret.Obj(); obj != nil {
		return obj.Value(), nil
	}
	return this.Value(), nil
}
