package minijs

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// run executes src in a fresh interpreter and fails the test on error.
func run(t *testing.T, src string) Value {
	t.Helper()
	in := New()
	v, err := in.Run(src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return v
}

// expectNum runs src and asserts the completion value.
func expectNum(t *testing.T, src string, want float64) {
	t.Helper()
	v := run(t, src)
	if !v.IsNumber() {
		t.Fatalf("Run(%q) = %#v (%s), want number", src, v, TypeOf(v))
	}
	got := v.Num()
	if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("Run(%q) = %v, want %v", src, got, want)
	}
}

func expectStr(t *testing.T, src string, want string) {
	t.Helper()
	v := run(t, src)
	if !v.IsString() {
		t.Fatalf("Run(%q) = %#v (%s), want string", src, v, TypeOf(v))
	}
	got := v.Str()
	if got != want {
		t.Fatalf("Run(%q) = %q, want %q", src, got, want)
	}
}

func expectBool(t *testing.T, src string, want bool) {
	t.Helper()
	v := run(t, src)
	if !v.IsBool() {
		t.Fatalf("Run(%q) = %#v, want bool", src, v)
	}
	got := v.Bool()
	if got != want {
		t.Fatalf("Run(%q) = %v, want %v", src, got, want)
	}
}

func TestArithmetic(t *testing.T) {
	expectNum(t, `1 + 2 * 3`, 7)
	expectNum(t, `(1 + 2) * 3`, 9)
	expectNum(t, `10 / 4`, 2.5)
	expectNum(t, `10 % 3`, 1)
	expectNum(t, `-5 + 2`, -3)
	expectNum(t, `2 * 3 + 4 * 5`, 26)
	expectNum(t, `100 - 10 - 5`, 85) // left associativity
}

func TestStringConcat(t *testing.T) {
	expectStr(t, `"a" + "b"`, "ab")
	expectStr(t, `"n=" + 5`, "n=5")
	expectStr(t, `1 + 2 + "x"`, "3x")
	expectStr(t, `"x" + 1 + 2`, "x12")
	expectNum(t, `"5" - 2`, 3) // minus coerces to number
	expectNum(t, `"5" * "2"`, 10)
}

func TestComparisons(t *testing.T) {
	expectBool(t, `1 < 2`, true)
	expectBool(t, `2 <= 2`, true)
	expectBool(t, `"abc" < "abd"`, true)
	expectBool(t, `1 == "1"`, true)
	expectBool(t, `1 === "1"`, false)
	expectBool(t, `null == undefined`, true)
	expectBool(t, `null === undefined`, false)
	expectBool(t, `NaN == NaN`, false)
	expectBool(t, `"" == 0`, true)
}

func TestLogicalShortCircuit(t *testing.T) {
	expectNum(t, `var n = 0; function boom() { n = 99; return true; } false && boom(); n`, 0)
	expectNum(t, `var n = 0; function boom() { n = 99; return true; } true || boom(); n`, 0)
	expectNum(t, `0 || 7`, 7)
	expectStr(t, `"x" && "y"`, "y")
}

func TestVarsAndScopes(t *testing.T) {
	expectNum(t, `var a = 1, b = 2; a + b`, 3)
	expectNum(t, `var x = 1; { var x = 2; } x`, 1) // block scoping in this dialect
	expectNum(t, `var x = 1; function f() { x = 5; } f(); x`, 5)
	expectNum(t, `implicitGlobal = 3; implicitGlobal + 1`, 4)
}

func TestControlFlow(t *testing.T) {
	expectNum(t, `var x = 0; if (true) { x = 1; } else { x = 2; } x`, 1)
	expectNum(t, `var x = 0; if (false) x = 1; else x = 2; x`, 2)
	expectNum(t, `var s = 0; for (var i = 0; i < 5; i++) { s += i; } s`, 10)
	expectNum(t, `var s = 0, i = 0; while (i < 4) { s += i; i++; } s`, 6)
	expectNum(t, `var n = 0; do { n++; } while (n < 3); n`, 3)
	expectNum(t, `var s = 0; for (var i = 0; i < 10; i++) { if (i == 3) break; s += i; } s`, 3)
	expectNum(t, `var s = 0; for (var i = 0; i < 5; i++) { if (i % 2 == 0) continue; s += i; } s`, 4)
	expectNum(t, `var c = 0, i = 0; while (true) { i++; if (i > 2) break; c += 10; } c`, 20)
}

func TestForIn(t *testing.T) {
	expectStr(t, `var o = {b: 1, a: 2}; var keys = ""; for (var k in o) { keys += k; } keys`, "ab")
	expectNum(t, `var arr = [10, 20, 30]; var s = 0; for (var i in arr) { s += arr[i]; } s`, 60)
}

func TestFunctions(t *testing.T) {
	expectNum(t, `function add(a, b) { return a + b; } add(2, 3)`, 5)
	expectNum(t, `var f = function(x) { return x * 2; }; f(21)`, 42)
	expectNum(t, `function f() {} f() === undefined ? 1 : 0`, 1)
	expectNum(t, `function f(a, b) { return b; } f(1) === undefined ? 1 : 0`, 1)
	expectNum(t, `function fact(n) { return n <= 1 ? 1 : n * fact(n - 1); } fact(6)`, 720)
}

func TestClosures(t *testing.T) {
	expectNum(t, `
		function counter() {
			var n = 0;
			return function() { n++; return n; };
		}
		var c = counter();
		c(); c(); c()
	`, 3)
	expectNum(t, `
		function adder(x) { return function(y) { return x + y; }; }
		adder(10)(32)
	`, 42)
}

func TestArguments(t *testing.T) {
	expectNum(t, `function f() { return arguments.length; } f(1, 2, 3)`, 3)
	expectNum(t, `function f() { return arguments[1]; } f(10, 20)`, 20)
}

func TestObjects(t *testing.T) {
	expectNum(t, `var o = {a: 1, b: {c: 2}}; o.a + o.b.c`, 3)
	expectNum(t, `var o = {}; o.x = 5; o["y"] = 6; o.x + o.y`, 11)
	expectBool(t, `var o = {k: 1}; "k" in o`, true)
	expectBool(t, `var o = {k: 1}; delete o.k; "k" in o`, false)
	expectStr(t, `typeof {}`, "object")
	expectNum(t, `var o = {"quoted key": 7}; o["quoted key"]`, 7)
}

func TestObjectMethodsAndThis(t *testing.T) {
	expectNum(t, `
		var o = {
			val: 10,
			get: function() { return this.val; }
		};
		o.get()
	`, 10)
}

func TestArrays(t *testing.T) {
	expectNum(t, `var a = [1, 2, 3]; a.length`, 3)
	expectNum(t, `var a = [1, 2, 3]; a[1]`, 2)
	expectNum(t, `var a = []; a.push(5); a.push(6); a[0] + a[1]`, 11)
	expectNum(t, `var a = [1, 2, 3]; a.pop(); a.length`, 2)
	expectStr(t, `[1, 2, 3].join("-")`, "1-2-3")
	expectNum(t, `var a = [1, 2]; a[5] = 9; a.length`, 6)
	expectNum(t, `[4, 5, 6].indexOf(5)`, 1)
	expectNum(t, `[4, 5, 6].indexOf(99)`, -1)
	expectStr(t, `[3, 2, 1].reverse().join("")`, "123")
	expectStr(t, `[1, 2, 3, 4].slice(1, 3).join("")`, "23")
	expectStr(t, `[1, 2].concat([3, 4], 5).join("")`, "12345")
	expectNum(t, `var a = [9, 8]; a.shift(); a[0]`, 8)
	expectNum(t, `var a = [2]; a.unshift(1); a[0]`, 1)
	expectStr(t, `typeof []`, "object")
	expectBool(t, `[] instanceof Array`, true)
}

func TestStringMethods(t *testing.T) {
	expectNum(t, `"hello".length`, 5)
	expectStr(t, `"hello".charAt(1)`, "e")
	expectNum(t, `"abc".charCodeAt(0)`, 97)
	expectNum(t, `"hello".indexOf("ll")`, 2)
	expectStr(t, `"hello".substring(1, 3)`, "el")
	expectStr(t, `"hello".slice(-3)`, "llo")
	expectStr(t, `"hello".toUpperCase()`, "HELLO")
	expectStr(t, `"a,b,c".split(",").join("|")`, "a|b|c")
	expectStr(t, `"abc".split("").join(" ")`, "a b c")
	expectStr(t, `"aXbXc".replace("X", "-")`, "a-bXc")
	expectStr(t, `"  pad  ".trim()`, "pad")
	expectStr(t, `"hi"[0]`, "h")
	expectStr(t, `String.fromCharCode(72, 105)`, "Hi")
	expectStr(t, `"abcdef".substr(2, 3)`, "cde")
}

func TestNumberMethods(t *testing.T) {
	expectStr(t, `(255).toString(16)`, "ff")
	expectStr(t, `(3.14159).toFixed(2)`, "3.14")
	expectStr(t, `(42).toString()`, "42")
}

func TestMathBuiltins(t *testing.T) {
	expectNum(t, `Math.floor(3.7)`, 3)
	expectNum(t, `Math.ceil(3.1)`, 4)
	expectNum(t, `Math.abs(-5)`, 5)
	expectNum(t, `Math.max(1, 9, 4)`, 9)
	expectNum(t, `Math.min(1, 9, 4)`, 1)
	expectNum(t, `Math.pow(2, 10)`, 1024)
	expectBool(t, `Math.random() >= 0 && Math.random() < 1`, true)
}

func TestGlobalFunctions(t *testing.T) {
	expectNum(t, `parseInt("42")`, 42)
	expectNum(t, `parseInt("0x1f")`, 31)
	expectNum(t, `parseInt("ff", 16)`, 255)
	expectNum(t, `parseInt("12px")`, 12)
	expectNum(t, `parseFloat("2.5abc")`, math.NaN()) // strict stdlib-based parse
	expectBool(t, `isNaN(parseInt("zz"))`, true)
	expectStr(t, `unescape("a%20b")`, "a b")
	expectStr(t, `decodeURIComponent("x%3Dy")`, "x=y")
}

func TestTernaryAndUpdate(t *testing.T) {
	expectNum(t, `true ? 1 : 2`, 1)
	expectNum(t, `var x = 5; x++; x`, 6)
	expectNum(t, `var x = 5; x--; x`, 4)
	expectNum(t, `var x = 5; var y = x++; y`, 5)
	expectNum(t, `var x = 5; var y = ++x; y`, 6)
	expectNum(t, `var o = {n: 1}; o.n++; o.n`, 2)
	expectNum(t, `var x = 10; x += 5; x -= 3; x *= 2; x`, 24)
}

func TestBitwise(t *testing.T) {
	expectNum(t, `5 & 3`, 1)
	expectNum(t, `5 | 3`, 7)
	expectNum(t, `5 ^ 3`, 6)
	expectNum(t, `1 << 4`, 16)
	expectNum(t, `16 >> 2`, 4)
	expectNum(t, `~0`, -1)
}

func TestTypeof(t *testing.T) {
	expectStr(t, `typeof 1`, "number")
	expectStr(t, `typeof "s"`, "string")
	expectStr(t, `typeof true`, "boolean")
	expectStr(t, `typeof undefined`, "undefined")
	expectStr(t, `typeof null`, "object")
	expectStr(t, `typeof function() {}`, "function")
	expectStr(t, `typeof neverDeclared`, "undefined")
}

func TestThrowTryCatch(t *testing.T) {
	expectStr(t, `
		var msg = "";
		try { throw "boom"; msg = "not reached"; }
		catch (e) { msg = "caught " + e; }
		msg
	`, "caught boom")
	expectNum(t, `
		var n = 0;
		try { n = 1; } finally { n += 10; }
		n
	`, 11)
	expectStr(t, `
		var log = "";
		try {
			try { throw "inner"; } finally { log += "F"; }
		} catch (e) { log += "C" + e; }
		log
	`, "FCinner")
	// TypeError from the runtime is catchable.
	expectStr(t, `
		var r = "no";
		try { var x = null; x.prop; } catch (e) { r = "yes"; }
		r
	`, "yes")
}

func TestUncaughtThrow(t *testing.T) {
	in := New()
	_, err := in.Run(`throw "fatal";`)
	var te *ThrowError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want ThrowError", err)
	}
	if ToString(te.Value) != "fatal" {
		t.Fatalf("thrown value = %v", te.Value)
	}
}

func TestReferenceError(t *testing.T) {
	in := New()
	_, err := in.Run(`missingVariable + 1`)
	if err == nil || !strings.Contains(err.Error(), "ReferenceError") {
		t.Fatalf("err = %v", err)
	}
}

func TestNotAFunctionError(t *testing.T) {
	in := New()
	_, err := in.Run(`var x = 5; x();`)
	if err == nil || !strings.Contains(err.Error(), "not a function") {
		t.Fatalf("err = %v", err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	in := New()
	in.Budget = 10000
	_, err := in.Run(`while (true) {}`)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	in := New()
	_, err := in.Run(`function f() { return f(); } f();`)
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Fatalf("err = %v", err)
	}
}

func TestEval(t *testing.T) {
	expectNum(t, `eval("1 + 2")`, 3)
	expectNum(t, `eval("var evalVar = 9;"); evalVar`, 9)
	// Obfuscated payload: build code from char codes, then eval it. This is
	// the pattern malicious ads use; the honeyclient relies on it working.
	expectNum(t, `
		var code = String.fromCharCode(118, 97, 114, 32, 122, 61, 52, 50, 59); // "var z=42;"
		eval(code);
		z
	`, 42)
	in := New()
	if _, err := in.Run(`eval("syntax error here ###")`); err == nil {
		t.Fatal("eval of invalid code should throw")
	}
}

func TestNewExpr(t *testing.T) {
	expectNum(t, `
		function Point(x, y) { this.x = x; this.y = y; }
		var p = new Point(3, 4);
		p.x + p.y
	`, 7)
	expectNum(t, `var a = new Array(3); a.length`, 3)
}

func TestHostObjectTraps(t *testing.T) {
	in := New()
	var setName string
	var setVal Value
	host := NewObject()
	host.SetTrap = func(name string, v Value) bool {
		setName, setVal = name, v
		return true
	}
	host.GetTrap = func(name string) (Value, bool) {
		if name == "href" {
			return Str("http://initial.example.com/"), true
		}
		return Value{}, false
	}
	in.Global.Define("location", host.Value())

	if _, err := in.Run(`location.href = "http://evil.example.net/land";`); err != nil {
		t.Fatal(err)
	}
	if setName != "href" || ToString(setVal) != "http://evil.example.net/land" {
		t.Fatalf("trap saw %q = %v", setName, setVal)
	}
	v, err := in.Run(`location.href`)
	if err != nil {
		t.Fatal(err)
	}
	if ToString(v) != "http://initial.example.com/" {
		t.Fatalf("GetTrap value = %v", v)
	}
}

func TestCallFunctionFromGo(t *testing.T) {
	in := New()
	v, err := in.Run(`function double(x) { return x * 2; } double`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := in.CallFunction(v, Undefined(), []Value{Num(21)})
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsNumber() || out.Num() != 42 {
		t.Fatalf("CallFunction = %v", out)
	}
	if _, err := in.CallFunction(Str("not fn"), Undefined(), nil); err == nil {
		t.Fatal("calling non-function should fail")
	}
}

func TestNativeFunctionBinding(t *testing.T) {
	in := New()
	var captured []Value
	in.Global.Define("capture", NewNative("capture", func(_ *Interp, _ Value, args []Value) (Value, error) {
		captured = append(captured, args...)
		return Undefined(), nil
	}).Value())
	if _, err := in.Run(`capture(1, "two", true);`); err != nil {
		t.Fatal(err)
	}
	if len(captured) != 3 || !StrictEquals(captured[0], Num(1)) || !StrictEquals(captured[1], Str("two")) || !StrictEquals(captured[2], Bool(true)) {
		t.Fatalf("captured = %v", captured)
	}
}

// Property: the interpreter agrees with Go arithmetic on random integer
// expressions a op b.
func TestArithmeticProperty(t *testing.T) {
	in := New()
	f := func(a, b int16, opSel uint8) bool {
		ops := []string{"+", "-", "*"}
		op := ops[int(opSel)%len(ops)]
		in.Budget = DefaultBudget
		v, err := in.Run(formatNumber(float64(a)) + " " + op + " " + "(" + formatNumber(float64(b)) + ")")
		if err != nil {
			return false
		}
		var want float64
		switch op {
		case "+":
			want = float64(a) + float64(b)
		case "-":
			want = float64(a) - float64(b)
		case "*":
			want = float64(a) * float64(b)
		}
		return v.IsNumber() && v.Num() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: running arbitrary source never panics (errors are fine).
func TestRunFuzzProperty(t *testing.T) {
	f := func(raw []byte) bool {
		in := New()
		in.Budget = 50000
		in.Run(string(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestValueConversions(t *testing.T) {
	if ToString(Num(3)) != "3" {
		t.Errorf("ToString(3) = %q", ToString(Num(3)))
	}
	if ToString(Num(3.5)) != "3.5" {
		t.Errorf("ToString(3.5) = %q", ToString(Num(3.5)))
	}
	arr := NewArray(Num(1), Str("a"), Null()).Value()
	if ToString(arr) != "1,a," {
		t.Errorf("array ToString = %q", ToString(arr))
	}
	if !math.IsNaN(ToNumber(Str("abc"))) {
		t.Error("ToNumber(abc) should be NaN")
	}
	if ToNumber(Str("0x10")) != 16 {
		t.Error("ToNumber hex failed")
	}
	if ToNumber(Str("")) != 0 {
		t.Error("ToNumber empty string should be 0")
	}
	if Truthy(Str("")) || Truthy(Num(0)) || Truthy(Null()) || Truthy(Undefined()) {
		t.Error("falsy values misjudged")
	}
	if !Truthy(Str("x")) || !Truthy(Num(1)) || !Truthy(NewObject().Value()) {
		t.Error("truthy values misjudged")
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		`var = 5;`, `if (x`, `function (`, `for (;;`, `{`, `a +`,
		`var x = ;`, `o.;`, `try {}`, `1 ? 2`,
	}
	for _, src := range bad {
		in := New()
		if _, err := in.Run(src); err == nil {
			t.Errorf("Run(%q) should fail", src)
		}
	}
}

func TestDeepPropertyChains(t *testing.T) {
	expectNum(t, `
		var root = {a: {b: {c: {d: 42}}}};
		root.a.b.c.d
	`, 42)
	expectNum(t, `
		var o = {list: [{n: 1}, {n: 2}]};
		o.list[1].n
	`, 2)
}

func TestNestedFunctionsAndHoisting(t *testing.T) {
	expectNum(t, `
		var r = early();
		function early() { return 7; }
		r
	`, 7)
	expectNum(t, `
		function outer() {
			function inner() { return 5; }
			return inner() * 2;
		}
		outer()
	`, 10)
}

func TestCallViaIndexExpression(t *testing.T) {
	expectNum(t, `
		var obj = { twice: function(x) { return x * 2; } };
		obj["twice"](21)
	`, 42)
	expectNum(t, `
		var fns = [function() { return 7; }, function() { return 8; }];
		fns[1]()
	`, 8)
	expectStr(t, `"hello"["toUpperCase"]()`, "HELLO")
}

func TestNewWithMemberCallee(t *testing.T) {
	expectNum(t, `
		var ns = {};
		ns.Point = function(x) { this.x = x; };
		var p = new ns.Point(5);
		p.x
	`, 5)
	expectNum(t, `
		var ctors = [function() { this.v = 1; }];
		var o = new ctors[0]();
		o.v
	`, 1)
}

func TestCalleeNameInErrors(t *testing.T) {
	in := New()
	_, err := in.Run(`var o = { n: 1 }; o.n.missing();`)
	if err == nil || !strings.Contains(err.Error(), "o.n.missing") {
		t.Fatalf("err = %v", err)
	}
	in2 := New()
	_, err = in2.Run(`(1 + 2)();`)
	if err == nil || !strings.Contains(err.Error(), "expression") {
		t.Fatalf("err = %v", err)
	}
}

func TestConversionEdgeCases(t *testing.T) {
	// ToNumber on booleans, null, arrays.
	expectNum(t, `true + 1`, 2)
	expectNum(t, `false + 0`, 0)
	expectNum(t, `null + 1`, 1)
	expectNum(t, `+[]`, 0)
	expectNum(t, `+[7]`, 7)
	expectBool(t, `isNaN(+[1, 2])`, true)
	expectBool(t, `isNaN(+{})`, true)
	expectBool(t, `isNaN(undefined + 1)`, true)
	// ToString of special numbers and values.
	expectStr(t, `"" + (1 / 0)`, "Infinity")
	expectStr(t, `"" + (-1 / 0)`, "-Infinity")
	expectStr(t, `"" + (0 / 0)`, "NaN")
	expectStr(t, `"" + 1.5e21`, "1.5e+21")
	expectStr(t, `"" + true`, "true")
	expectStr(t, `"" + null`, "null")
	expectStr(t, `"" + undefined`, "undefined")
	expectStr(t, `"" + {}`, "[object Object]")
	expectStr(t, `"" + [1, [2, 3]]`, "1,2,3")
	expectStr(t, `"" + function named() {}`, "function named() { [code] }")
}

func TestComputedObjectAccess(t *testing.T) {
	expectNum(t, `var o = {}; var k = "dyn"; o[k] = 9; o[k] + o["dyn"]`, 18)
	expectNum(t, `var o = {a: 1}; o[undefined] = 5; o["undefined"]`, 5)
	expectStr(t, `var s = "abc"; s[1]`, "b")
	expectBool(t, `var s = "abc"; s[9] === undefined`, true)
}

func TestStringCompare(t *testing.T) {
	expectBool(t, `"b" > "a"`, true)
	expectBool(t, `"10" < "9"`, true) // string comparison
	expectBool(t, `10 < "9"`, false)  // numeric comparison
	expectBool(t, `"abc" <= "abc"`, true)
	expectBool(t, `"z" >= "a"`, true)
}

func TestDeleteAndInOperators(t *testing.T) {
	expectBool(t, `var o = {x: 1}; delete o.x`, true)
	expectBool(t, `delete 42`, true) // no-op, returns true
	expectBool(t, `var a = [1, 2]; "length" in a`, true)
	in := New()
	if _, err := in.Run(`"x" in 5`); err == nil {
		t.Fatal("'in' on number should throw")
	}
}

// engines lists both interpreters for tests that pin a semantic on each.
var engines = []struct {
	name string
	new  func() *Interp
}{{"reference", NewReference}, {"vm", New}}

// TestNegativeZeroSemantics pins the fuzz-found constant-pool bug: -0 == +0
// in Go, so map-keyed interning collapsed the two into whichever the
// compiler saw first ("-0A=0" assigned -0 to A on the VM, 0 on the
// tree-walker). -0 must stay distinct (1/-0 is -Infinity) while its string
// form drops the sign, as JS ToString does.
func TestNegativeZeroSemantics(t *testing.T) {
	if got := ToString(Num(math.Copysign(0, -1))); got != "0" {
		t.Fatalf("ToString(-0) = %q, want \"0\"", got)
	}
	for _, eng := range engines {
		in := eng.new()
		v, err := in.Run(`var z = -0; var p = 0; "" + (1 / z) + "|" + (1 / p) + "|" + z;`)
		if err != nil {
			t.Fatal(err)
		}
		if got := ToString(v); got != "-Infinity|Infinity|0" {
			t.Fatalf("%s: got %q, want \"-Infinity|Infinity|0\"", eng.name, got)
		}
	}
}

// TestNaNConstantSemantics is the mirror image of the -0 interning bug: in
// Go, NaN != NaN, so a map-keyed constant pool can never coalesce NaN
// entries — but however many pool slots NaN occupies, the loaded value must
// still behave like JS NaN on both engines (self-inequal, contagious
// through comparison, "NaN" when stringified).
func TestNaNConstantSemantics(t *testing.T) {
	for _, eng := range engines {
		in := eng.new()
		v, err := in.Run(`var a = NaN; var b = 0 / 0;
			"" + (a == a) + "|" + (a == b) + "|" + (a != a) + "|" + a + "|" + (1 < NaN) + "|" + (NaN <= NaN);`)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ToString(v), "false|false|true|NaN|false|false"; got != want {
			t.Fatalf("%s: got %q, want %q", eng.name, got, want)
		}
	}
}

// TestStringInterningSemantics guards the string-scratch optimizations:
// identical literals may share one interned pool constant, and runtime
// concatenation builds through a reused scratch buffer — but a string that
// has escaped must be immutable. If the scratch were handed out by
// reference, the later `built + "X"` append would corrupt `built` after it
// already compared equal to the interned literal.
func TestStringInterningSemantics(t *testing.T) {
	for _, eng := range engines {
		in := eng.new()
		v, err := in.Run(`var lit1 = "intern-me"; var lit2 = "intern-me";
			var parts = ["in", "tern", "-", "me"];
			var built = "";
			for (var i = 0; i < parts.length; i++) { built += parts[i]; }
			var other = built + "X";
			"" + (lit1 == lit2) + "|" + (built == lit1) + "|" + built + "|" + other;`)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ToString(v), "true|true|intern-me|intern-meX"; got != want {
			t.Fatalf("%s: got %q, want %q", eng.name, got, want)
		}
	}
}
