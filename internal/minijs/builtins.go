package minijs

import (
	"math"
	"strings"
)

// The builtin function objects below are stateless: they read the receiver
// from `this` and everything else from args. A single frozen instance of each
// therefore serves every interpreter — creating an Interp no longer allocates
// per-method closures, and property writes on the shared objects are silently
// ignored (frozen), which keeps them race-free under concurrent visits. This
// matches the old per-access-closure behaviour observably: writes to a method
// object were never visible on the next property access either.

// installBuiltins defines the standard global bindings every execution
// context gets: Math, String, parseInt/parseFloat, isNaN, escape/unescape,
// URI coders, eval, and the Array/Function tag objects used by instanceof.
//
// Math.random is deterministic (a fixed-seed LCG) so that crawls are
// reproducible; the embedding browser replaces it with a stream derived from
// the simulation seed.
// sharedGlobals is the frozen scope of immutable builtins (constructors,
// global functions, NaN/Infinity) that every interpreter's global scope
// chains to. Built once; assignments shadow in the interpreter's own global
// (see Env.Assign), so sharing is race-free.
var sharedGlobals = func() *Env {
	g := NewEnv(nil)
	g.Define("NaN", Num(math.NaN()))
	g.Define("Infinity", Num(math.Inf(1)))
	g.Define("String", stringCtor.Value())
	g.Define("Number", numberCtor.Value())
	g.Define("Boolean", booleanCtor.Value())
	g.Define("Array", arrayCtor.Value())
	g.Define("Object", objectCtor.Value())
	g.Define("Function", functionCtor.Value())
	for name, fn := range globalFuncs {
		g.Define(name, fn.Value())
	}
	g.frozen = true
	return g
}()

func installBuiltins(in *Interp) {
	g := in.Global

	// Math is the one mutable builtin object: the browser layer overwrites
	// Math.random with a seeded stream, and scripts may patch it too, so the
	// object itself stays per-interpreter. Its methods are shared.
	mathObj := in.NewObject()
	mathObj.Name = "Math"
	mathObj.Props["PI"] = Num(math.Pi)
	mathObj.Props["E"] = Num(math.E)
	rngState := uint64(0x9e3779b97f4a7c15)
	mathObj.Props["random"] = in.NewNative("random", func(_ *Interp, _ Value, _ []Value) (Value, error) {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		return Num(float64(rngState>>11) / (1 << 53)), nil
	}).Value()
	// The shared methods are served through a trap instead of being copied
	// into every interpreter's map. Props wins over the shared table so
	// patches (`Math.floor = ...`) and the per-interp random stay visible.
	mathObj.GetTrap = func(name string) (Value, bool) {
		if v, ok := mathObj.Props[name]; ok {
			return v, true
		}
		if m, ok := mathMethods[name]; ok {
			return m.Value(), true
		}
		return Value{}, false
	}
	g.Define("Math", mathObj.Value())
}

// mathMethods are the shared Math method objects (everything but random,
// which carries per-interpreter RNG state).
var mathMethods = func() map[string]*Object {
	m := map[string]*Object{}
	unary := func(name string, f func(float64) float64) {
		m[name] = newFrozenNative(name, func(_ *Interp, _ Value, args []Value) (Value, error) {
			return Num(f(ToNumber(arg(args, 0)))), nil
		})
	}
	unary("floor", math.Floor)
	unary("ceil", math.Ceil)
	unary("round", func(f float64) float64 { return math.Floor(f + 0.5) })
	unary("abs", math.Abs)
	unary("sqrt", math.Sqrt)
	unary("log", math.Log)
	unary("exp", math.Exp)
	unary("sin", math.Sin)
	unary("cos", math.Cos)
	m["pow"] = newFrozenNative("pow", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return Num(math.Pow(ToNumber(arg(args, 0)), ToNumber(arg(args, 1)))), nil
	})
	m["max"] = newFrozenNative("max", func(_ *Interp, _ Value, args []Value) (Value, error) {
		out := math.Inf(-1)
		for _, a := range args {
			out = math.Max(out, ToNumber(a))
		}
		return Num(out), nil
	})
	m["min"] = newFrozenNative("min", func(_ *Interp, _ Value, args []Value) (Value, error) {
		out := math.Inf(1)
		for _, a := range args {
			out = math.Min(out, ToNumber(a))
		}
		return Num(out), nil
	})
	return m
}()

var stringCtor = func() *Object {
	o := newFrozenNative("String", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return Str(ToString(arg(args, 0))), nil
	})
	o.Props = map[string]Value{
		"fromCharCode": newFrozenNative("fromCharCode", func(_ *Interp, _ Value, args []Value) (Value, error) {
			var b strings.Builder
			for _, a := range args {
				b.WriteRune(rune(int(ToNumber(a))))
			}
			return Str(b.String()), nil
		}).Value(),
	}
	return o
}()

var numberCtor = newFrozenNative("Number", func(_ *Interp, _ Value, args []Value) (Value, error) {
	return Num(ToNumber(arg(args, 0))), nil
})

var booleanCtor = newFrozenNative("Boolean", func(_ *Interp, _ Value, args []Value) (Value, error) {
	return Bool(Truthy(arg(args, 0))), nil
})

var arrayCtor = newFrozenNative("Array", func(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 1 {
		if a0 := args[0]; a0.IsNumber() && a0.Num() == math.Trunc(a0.Num()) && a0.Num() >= 0 {
			n := a0.Num()
			if n >= maxArrayLen {
				return Value{}, &ThrowError{Value: Str("RangeError: invalid array length")}
			}
			elems := make([]Value, int(n))
			for i := range elems {
				elems[i] = Undefined()
			}
			return NewArray(elems...).Value(), nil
		}
	}
	// args may be a view of the VM's call arena; the array outlives the call,
	// so it must own its backing store.
	return NewArray(append([]Value(nil), args...)...).Value(), nil
})

var objectCtor = newFrozenNative("Object", func(_ *Interp, _ Value, _ []Value) (Value, error) {
	return NewObject().Value(), nil
})

var functionCtor = newFrozenNative("Function", func(_ *Interp, _ Value, _ []Value) (Value, error) {
	return Value{}, &ThrowError{Value: Str("TypeError: Function constructor is disabled")}
})

// globalFuncs are the shared stateless global functions.
var globalFuncs = map[string]*Object{
	"parseInt": newFrozenNative("parseInt", func(_ *Interp, _ Value, args []Value) (Value, error) {
		radix := 0
		if len(args) > 1 {
			radix = int(ToNumber(args[1]))
		}
		return Num(parseIntValue(ToString(arg(args, 0)), radix)), nil
	}),
	"parseFloat": newFrozenNative("parseFloat", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return Num(ToNumber(Str(ToString(arg(args, 0))))), nil
	}),
	"isNaN": newFrozenNative("isNaN", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return Bool(math.IsNaN(ToNumber(arg(args, 0)))), nil
	}),
	"escape": newFrozenNative("escape", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return Str(jsEscape(ToString(arg(args, 0)))), nil
	}),
	"unescape": newFrozenNative("unescape", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return Str(jsUnescape(ToString(arg(args, 0)))), nil
	}),
	"encodeURIComponent": newFrozenNative("encodeURIComponent", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return Str(jsEncodeURIComponent(ToString(arg(args, 0)))), nil
	}),
	"decodeURIComponent": newFrozenNative("decodeURIComponent", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return Str(jsDecodeURIComponent(ToString(arg(args, 0)))), nil
	}),
	// eval executes in the global scope (the only scope the dialect's eval
	// supports). Obfuscated malvertising payloads decode a string and eval
	// it; the honeyclient sees through this because the decoded program runs
	// in the same instrumented interpreter.
	"eval": newFrozenNative("eval", func(in *Interp, _ Value, args []Value) (Value, error) {
		a0 := arg(args, 0)
		if !a0.IsString() {
			return a0, nil
		}
		prog, err := Parse(a0.Str())
		if err != nil {
			return Value{}, &ThrowError{Value: Str("SyntaxError: " + err.Error())}
		}
		return in.RunProgram(prog)
	}),
}

// arg returns args[i] or Undefined.
func arg(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return Undefined()
}

// thisString coerces the receiver of a string method.
func thisString(this Value) string { return ToString(this) }

// stringMethods are the shared string primitive methods; the receiver string
// arrives as `this` (both engines pass the evaluated receiver for method
// calls, see evalCall and compileCall).
var stringMethods = map[string]*Object{
	"charAt": newFrozenNative("charAt", func(_ *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		i := int(ToNumber(arg(args, 0)))
		if i < 0 || i >= len(s) {
			return Str(""), nil
		}
		return Str(s[i : i+1]), nil
	}),
	"charCodeAt": newFrozenNative("charCodeAt", func(_ *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		i := int(ToNumber(arg(args, 0)))
		if i < 0 || i >= len(s) {
			return Num(math.NaN()), nil
		}
		return Num(float64(s[i])), nil
	}),
	"indexOf": newFrozenNative("indexOf", func(_ *Interp, this Value, args []Value) (Value, error) {
		return Num(float64(strings.Index(thisString(this), ToString(arg(args, 0))))), nil
	}),
	"lastIndexOf": newFrozenNative("lastIndexOf", func(_ *Interp, this Value, args []Value) (Value, error) {
		return Num(float64(strings.LastIndex(thisString(this), ToString(arg(args, 0))))), nil
	}),
	"substring": newFrozenNative("substring", func(_ *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		start, end := sliceBounds(len(s), args)
		return Str(s[start:end]), nil
	}),
	"substr": newFrozenNative("substr", func(_ *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		start := clampIndex(int(ToNumber(arg(args, 0))), len(s))
		length := len(s) - start
		if len(args) > 1 {
			length = int(ToNumber(args[1]))
		}
		if length < 0 {
			length = 0
		}
		if start+length > len(s) {
			length = len(s) - start
		}
		return Str(s[start : start+length]), nil
	}),
	"slice": newFrozenNative("slice", func(_ *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		start, end := negSliceBounds(len(s), args)
		if start > end {
			return Str(""), nil
		}
		return Str(s[start:end]), nil
	}),
	"toUpperCase": newFrozenNative("toUpperCase", func(_ *Interp, this Value, _ []Value) (Value, error) {
		return Str(strings.ToUpper(thisString(this))), nil
	}),
	"toLowerCase": newFrozenNative("toLowerCase", func(_ *Interp, this Value, _ []Value) (Value, error) {
		return Str(strings.ToLower(thisString(this))), nil
	}),
	"split": newFrozenNative("split", func(_ *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		if len(args) == 0 {
			return NewArray(Str(s)).Value(), nil
		}
		sep := ToString(args[0])
		var parts []string
		if sep == "" {
			for i := 0; i < len(s); i++ {
				parts = append(parts, s[i:i+1])
			}
		} else {
			parts = strings.Split(s, sep)
		}
		elems := make([]Value, len(parts))
		for i, p := range parts {
			elems[i] = Str(p)
		}
		return NewArray(elems...).Value(), nil
	}),
	"replace": newFrozenNative("replace", func(_ *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		repl := ToString(arg(args, 1))
		// Regex patterns honor the g flag; string patterns replace the
		// first match like JavaScript's string-pattern replace.
		if rr, ok := regexArg(arg(args, 0)); ok {
			return Str(regexReplace(s, rr, repl)), nil
		}
		old := ToString(arg(args, 0))
		return Str(strings.Replace(s, old, repl, 1)), nil
	}),
	"match": newFrozenNative("match", func(_ *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		rr, ok := regexArg(arg(args, 0))
		if !ok {
			return Null(), nil
		}
		re, ok := rr.re()
		if !ok {
			return Null(), nil
		}
		if rr.global {
			ms := re.FindAllString(s, -1)
			if ms == nil {
				return Null(), nil
			}
			elems := make([]Value, len(ms))
			for i, m := range ms {
				elems[i] = Str(m)
			}
			return NewArray(elems...).Value(), nil
		}
		loc := re.FindStringSubmatchIndex(s)
		if loc == nil {
			return Null(), nil
		}
		res := NewArray()
		for i := 0; i*2 < len(loc); i++ {
			if loc[i*2] < 0 {
				res.Elems = append(res.Elems, Undefined())
			} else {
				res.Elems = append(res.Elems, Str(s[loc[i*2]:loc[i*2+1]]))
			}
		}
		res.Set("index", Num(float64(loc[0])))
		res.Set("input", Str(s))
		return res.Value(), nil
	}),
	"search": newFrozenNative("search", func(_ *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		rr, ok := regexArg(arg(args, 0))
		if !ok {
			return Num(float64(strings.Index(s, ToString(arg(args, 0))))), nil
		}
		re, ok := rr.re()
		if !ok {
			return Num(-1), nil
		}
		loc := re.FindStringIndex(s)
		if loc == nil {
			return Num(-1), nil
		}
		return Num(float64(loc[0])), nil
	}),
	"concat": newFrozenNative("concat", func(_ *Interp, this Value, args []Value) (Value, error) {
		out := thisString(this)
		for _, a := range args {
			out += ToString(a)
		}
		return Str(out), nil
	}),
	"trim": newFrozenNative("trim", func(_ *Interp, this Value, _ []Value) (Value, error) {
		return Str(strings.TrimSpace(thisString(this))), nil
	}),
	"toString": newFrozenNative("toString", func(_ *Interp, this Value, _ []Value) (Value, error) {
		return Str(thisString(this)), nil
	}),
}

// stringMember resolves properties and methods on string primitives.
func stringMember(s, name string) Value {
	if name == "length" {
		return Num(float64(len(s)))
	}
	if m, ok := stringMethods[name]; ok {
		return m.Value()
	}
	return Undefined()
}

// numberMethods are the shared number primitive methods (receiver via this).
var numberMethods = map[string]*Object{
	"toString": newFrozenNative("toString", func(_ *Interp, this Value, args []Value) (Value, error) {
		n := ToNumber(this)
		if len(args) > 0 {
			radix := int(ToNumber(args[0]))
			if radix >= 2 && radix <= 36 && n == math.Trunc(n) {
				return Str(formatIntRadix(int64(n), radix)), nil
			}
		}
		return Str(formatNumber(n)), nil
	}),
	"toFixed": newFrozenNative("toFixed", func(_ *Interp, this Value, args []Value) (Value, error) {
		n := ToNumber(this)
		digits := int(ToNumber(arg(args, 0)))
		if digits < 0 || digits > 20 {
			digits = 0
		}
		pow := math.Pow(10, float64(digits))
		rounded := math.Floor(n*pow+0.5) / pow
		s := formatNumber(rounded)
		if digits > 0 && !strings.Contains(s, ".") {
			s += "." + strings.Repeat("0", digits)
		}
		return Str(s), nil
	}),
}

// numberMember resolves methods on number primitives.
func numberMember(n float64, name string) Value {
	if m, ok := numberMethods[name]; ok {
		return m.Value()
	}
	return Undefined()
}

func formatIntRadix(n int64, radix int) string {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{digits[n%int64(radix)]}, b...)
		n /= int64(radix)
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

// thisArray coerces the receiver of an array method; nil when the receiver
// is not an array (e.g. a method extracted and called bare).
func thisArray(this Value) *Object {
	if a := this.Obj(); a != nil && a.IsArray {
		return a
	}
	return nil
}

// mutableArray is thisArray for the mutating methods: writes to a frozen
// (shared) array are silently dropped, as property writes are.
func mutableArray(this Value) *Object {
	if a := thisArray(this); a != nil && !a.frozen {
		return a
	}
	return nil
}

// arrayMethods are the shared array methods (receiver via this).
var arrayMethods = map[string]*Object{
	"push": newFrozenNative("push", func(_ *Interp, this Value, args []Value) (Value, error) {
		a := mutableArray(this)
		if a == nil {
			return Undefined(), nil
		}
		a.Elems = append(a.Elems, args...)
		return Num(float64(len(a.Elems))), nil
	}),
	"pop": newFrozenNative("pop", func(_ *Interp, this Value, _ []Value) (Value, error) {
		a := mutableArray(this)
		if a == nil || len(a.Elems) == 0 {
			return Undefined(), nil
		}
		v := a.Elems[len(a.Elems)-1]
		a.Elems = a.Elems[:len(a.Elems)-1]
		return v, nil
	}),
	"shift": newFrozenNative("shift", func(_ *Interp, this Value, _ []Value) (Value, error) {
		a := mutableArray(this)
		if a == nil || len(a.Elems) == 0 {
			return Undefined(), nil
		}
		v := a.Elems[0]
		a.Elems = a.Elems[1:]
		return v, nil
	}),
	"unshift": newFrozenNative("unshift", func(_ *Interp, this Value, args []Value) (Value, error) {
		a := mutableArray(this)
		if a == nil {
			return Undefined(), nil
		}
		a.Elems = append(append([]Value{}, args...), a.Elems...)
		return Num(float64(len(a.Elems))), nil
	}),
	"join": newFrozenNative("join", func(_ *Interp, this Value, args []Value) (Value, error) {
		a := thisArray(this)
		if a == nil {
			return Str(""), nil
		}
		sep := ","
		if len(args) > 0 {
			sep = ToString(args[0])
		}
		parts := make([]string, len(a.Elems))
		total := 0
		for i, e := range a.Elems {
			if e.isNullish() {
				parts[i] = ""
			} else {
				parts[i] = ToString(e)
			}
			total += len(parts[i]) + len(sep)
			if total > maxStringLen {
				return Value{}, &ThrowError{Value: Str("RangeError: invalid string length")}
			}
		}
		return Str(strings.Join(parts, sep)), nil
	}),
	"reverse": newFrozenNative("reverse", func(_ *Interp, this Value, _ []Value) (Value, error) {
		a := mutableArray(this)
		if a == nil {
			return Undefined(), nil
		}
		for i, j := 0, len(a.Elems)-1; i < j; i, j = i+1, j-1 {
			a.Elems[i], a.Elems[j] = a.Elems[j], a.Elems[i]
		}
		return a.Value(), nil
	}),
	"slice": newFrozenNative("slice", func(_ *Interp, this Value, args []Value) (Value, error) {
		a := thisArray(this)
		if a == nil {
			return NewArray().Value(), nil
		}
		start, end := negSliceBounds(len(a.Elems), args)
		if start > end {
			return NewArray().Value(), nil
		}
		out := make([]Value, end-start)
		copy(out, a.Elems[start:end])
		return NewArray(out...).Value(), nil
	}),
	"concat": newFrozenNative("concat", func(_ *Interp, this Value, args []Value) (Value, error) {
		a := thisArray(this)
		if a == nil {
			return NewArray().Value(), nil
		}
		out := append([]Value{}, a.Elems...)
		for _, v := range args {
			if arr := v.Obj(); arr != nil && arr.IsArray {
				out = append(out, arr.Elems...)
			} else {
				out = append(out, v)
			}
		}
		return NewArray(out...).Value(), nil
	}),
	"indexOf": newFrozenNative("indexOf", func(_ *Interp, this Value, args []Value) (Value, error) {
		a := thisArray(this)
		if a == nil {
			return Num(-1), nil
		}
		for i, e := range a.Elems {
			if StrictEquals(e, arg(args, 0)) {
				return Num(float64(i)), nil
			}
		}
		return Num(-1), nil
	}),
	"toString": newFrozenNative("toString", func(_ *Interp, this Value, _ []Value) (Value, error) {
		return Str(ToString(this)), nil
	}),
}

// arrayMember resolves array methods; returns nil when name is not an array
// method so the caller can fall back to plain property lookup.
func arrayMember(name string) *Object {
	return arrayMethods[name]
}

// sliceBounds implements substring-style clamping (negative -> 0, swap if
// start > end).
func sliceBounds(n int, args []Value) (int, int) {
	start := clampIndex(int(ToNumber(arg(args, 0))), n)
	end := n
	if len(args) > 1 {
		if !args[1].IsUndefined() {
			end = clampIndex(int(ToNumber(args[1])), n)
		}
	}
	if start > end {
		start, end = end, start
	}
	return start, end
}

// negSliceBounds implements slice-style bounds where negative indices count
// from the end.
func negSliceBounds(n int, args []Value) (int, int) {
	start := 0
	if len(args) > 0 {
		start = int(ToNumber(args[0]))
	}
	end := n
	if len(args) > 1 {
		if !args[1].IsUndefined() {
			end = int(ToNumber(args[1]))
		}
	}
	if start < 0 {
		start += n
	}
	if end < 0 {
		end += n
	}
	return clampIndex(start, n), clampIndex(end, n)
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}
