package minijs

// Differential fuzzing between the tree-walking interpreter and the
// bytecode VM (ISSUE 6). The two engines must agree on everything a script
// can observe: the result value, the error (value and line), every global
// side effect, and the step budget consumed. FuzzParseRecover holds the
// error-tolerant parser to its contract: never panic, never loop, parse a
// superset of the strict grammar, and recover deterministically.

import (
	"sort"
	"strings"
	"testing"

	"madave/internal/fuzzutil"
)

// runEngineForFuzz executes prog on in, a fresh interpreter of the engine
// under test, and returns (bounded result, error string, remaining budget,
// global bindings snapshot).
func runEngineForFuzz(in *Interp, prog *Program) (string, string, int, string) {
	in.Budget = fuzzEvalBudget
	in.MaxDepth = 64
	v, err := in.RunProgram(prog)
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	out := ToString(v)
	if len(out) > 1<<12 {
		out = out[:1<<12]
	}
	return out, errStr, in.Budget, globalSnapshot(in)
}

// globalSnapshot serializes the global scope's bindings in sorted order with
// bounded value rendering, capturing the side effects a run left behind.
func globalSnapshot(in *Interp) string {
	bindings := map[string]Value{}
	in.Global.Each(func(name string, v Value) { bindings[name] = v })
	keys := make([]string, 0, len(bindings))
	for k := range bindings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		s := ToString(bindings[k])
		if len(s) > 256 {
			s = s[:256]
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}

// diffEngines runs src under both engines and reports any divergence.
func diffEngines(t *testing.T, src string) {
	t.Helper()
	// Each engine gets its own parse: the tree-walk program stays
	// uncompiled, proving the VM result does not depend on shared state.
	treeProg, err := Parse(src)
	if err != nil {
		return
	}
	vmProg, err := Parse(src)
	if err != nil {
		return
	}
	if cerr := CompileProgram(nil, vmProg); cerr != nil {
		t.Fatalf("compile failed on valid program: %v\nsrc: %q", cerr, src)
	}
	tv, te, tb, tg := runEngineForFuzz(NewReference(), treeProg)
	vv, ve, vb, vg := runEngineForFuzz(New(), vmProg)
	if tv != vv || te != ve {
		t.Fatalf("engine divergence:\n tree = (%q, %q)\n   vm = (%q, %q)\nsrc: %q", tv, te, vv, ve, src)
	}
	if tg != vg {
		t.Fatalf("global side-effect divergence:\n tree globals:\n%s\n vm globals:\n%s\nsrc: %q", tg, vg, src)
	}
	// Budget remainders must match step for step unless the budget was the
	// thing that stopped execution (batched charges then legitimately
	// overshoot by different amounts past zero).
	if te != ErrBudget.Error() && ve != ErrBudget.Error() && tb != vb {
		t.Fatalf("step-count divergence: tree budget %d, vm budget %d\nsrc: %q", tb, vb, src)
	}
}

func FuzzCompileEval(f *testing.F) {
	addScriptSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			t.Skip("oversized input")
		}
		diffEngines(t, src)
	})
}

// TestEngineEquivalenceSeeds runs the differential oracle over the full seed
// corpus on every `go test`, so the equivalence contract is enforced even
// without a fuzzing session.
func TestEngineEquivalenceSeeds(t *testing.T) {
	for _, src := range jsBugSeeds {
		diffEngines(t, src)
	}
	for _, src := range fuzzutil.Scripts(0x15, 64) {
		diffEngines(t, src)
	}
	for _, src := range vmRegressionSeeds {
		diffEngines(t, src)
	}
}

// vmRegressionSeeds pin constructs where the two engines are easiest to
// drive apart: completion values, non-local control flow across try/finally,
// double-evaluated assignment targets, switch fallthrough, and for-in over
// mutating objects. Divergences found by FuzzCompileEval land here.
var vmRegressionSeeds = []string{
	// Completion values: only top-level expression statements (and if
	// branches) update the program result.
	`1; 2; if (true) 3;`,
	`if (false) 1; else if (true) { 2; }`,
	`var x = 9;`,
	`5; while (false) {}`,
	// Top-level non-local control stops quietly with the last completion.
	`1; 2; return; 3;`,
	`7; break;`,
	// try/catch/finally control overriding.
	`var r = (function () { try { return "t"; } finally { return "f"; } })(); r;`,
	`var r = (function () { try { throw "x"; } catch (e) { return e; } finally { var z = 1; } })(); r;`,
	`var s = ""; for (var i = 0; i < 3; i++) { try { if (i == 1) continue; s += i; } finally { s += "f"; } } s;`,
	`var s = ""; while (true) { try { break; } finally { s += "f"; } } s;`,
	`(function () { try { throw "a"; } finally { } })();`,
	`var s = ""; try { try { throw "x"; } finally { s += "inner"; } } catch (e) { s += "|caught " + e; } s;`,
	// Double evaluation of member/index assignment targets.
	`var n = 0; function o() { n++; return {p: 1}; } o().p += 2; n;`,
	`var n = 0; var a = [5]; function idx() { n++; return 0; } a[idx()] += 3; "" + a + "|" + n;`,
	`var n = 0; function o() { n++; return {p: 1}; } o().p++; n;`,
	// Step parity on short-circuits and folding.
	`var x = 1 + 2 * 3; x;`,
	`true && false || "tail";`,
	`1 ? "a" : "b";`,
	`var y = "s" + 1 + null + undefined + true;`,
	// Switch semantics: test order, default skip, fallthrough, break.
	`var s = ""; switch (2) { case 1: s += "a"; case 2: s += "b"; case 3: s += "c"; break; default: s += "d"; } s;`,
	`var s = ""; switch (9) { case 1: s += "a"; default: s += "d"; case 3: s += "c"; } s;`,
	`var s = ""; for (var i = 0; i < 4; i++) { switch (i) { case 1: continue; case 2: break; } s += i; } s;`,
	// for-in determinism and loop-variable scoping.
	`var s = ""; var o = {b: 1, a: 2}; for (var k in o) { s += k; } s;`,
	`var s = ""; for (var k in [10, 20, 30]) { s += k; } s;`,
	`var s = ""; for (var k in "notobject") { s += k; } "ok" + s;`,
	// Identifier/reference errors carry exact lines.
	"var a = 1;\nmissing;",
	"var o = null;\no.x = 1;",
	"var u;\nu.prop;",
	// typeof/delete special forms.
	`typeof notdefined;`,
	`var o = {x: 1}; delete o.x; typeof o.x;`,
	`var a = [1]; delete a[0]; a.length;`,
	// Update expressions.
	`var i = 5; var a = i++ + ++i; a + "|" + i;`,
	// this/new/constructor-return semantics.
	`function C() { this.v = 7; } var c = new C(); c.v;`,
	`function D() { return {v: 8}; } new D().v;`,
	`function E() { return 3; } new E().v === undefined;`,
	// arguments aliasing and depth errors.
	`function f() { return arguments[1]; } f(1, 2, 3);`,
	`function rec(n) { return rec(n + 1); } try { rec(0); } catch (e) { "" + e; }`,
	// Regex literals (new in this dialect).
	`/a+b/.test("aaab");`,
	`/x/.test("y") === false;`,
	`"a1b2".replace(/[0-9]/g, "#");`,
	`"a1b2".replace(/[0-9]/, "#");`,
	`var m = "za9".match(/([a-z])(9)/); m[1] + m[2] + m.index;`,
	`/(?=lookahead)/.test("lookahead");`, // inert under RE2: must be false, not an error
	`"aXb".split("X").join("|");`,
	`"s$1".replace(/s/, "$&$&");`,
	// eval reentrancy through the VM.
	`var r = eval("1 + 2"); r;`,
	`eval("var inner = 5;"); inner;`,
	// Budget exhaustion points.
	`var i = 0; while (true) { i++; }`,
	`function loop() { while (true) {} } try { loop(); } finally { var cleanup = 1; }`,
	// Negative zero: the compiler's constant pool must not intern -0 and +0
	// into one slot (-0 == +0 in Go, but 1/-0 is -Infinity in JS). Found by
	// FuzzCompileEval as "-0A=0" (seed negzero-const-interning).
	`-0A=0`,
	`var z = -0; var p = 0; "" + (1 / z) + "|" + (1 / p);`,
	`var s = "" + -0; s;`,
}
