package minijs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenScripts is the disassembly corpus: each entry pins the exact
// bytecode the compiler emits for one language construct. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/minijs -run TestGoldenDisassembly
//
// and review the diff like any other code change.
var goldenScripts = []struct {
	name string
	src  string
}{
	{"fold_arith", `var x = 1 + 2 * 3; x;`},
	{"branch_completion", `if (true) "yes"; else "no";`},
	{"while_loop", `var i = 0; while (i < 3) { i = i + 1; } i;`},
	{"for_loop_break", `var s = ""; for (var i = 0; i < 9; i++) { if (i == 2) break; s += i; } s;`},
	{"switch_fallthrough", `var s = ""; switch (2) { case 1: s += "a"; case 2: s += "b"; default: s += "d"; } s;`},
	{"forin_object", `var s = ""; for (var k in {a: 1, b: 2}) { s += k; } s;`},
	{"function_call", `function add(a, b) { return a + b; } add(1, 2);`},
	{"method_this", `var o = {f: function () { return this.v; }, v: 7}; o.f();`},
	{"try_finally", `var s = ""; try { s += "t"; throw "x"; } catch (e) { s += e; } finally { s += "f"; } s;`},
	{"member_compound", `var o = {p: 1}; o.p += 2; o.p;`},
	{"regex_literal", `/a+b/i.test("AAB");`},
	{"logical_shortcircuit", `var a = 0; a && missing(); a || "fallback";`},
}

// TestGoldenDisassembly pins the compiled bytecode listing for every corpus
// script. The golden header records the sha256 of the source, so a listing
// is only comparable to the exact script that produced it.
func TestGoldenDisassembly(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, tc := range goldenScripts {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if err := CompileProgram(nil, prog); err != nil {
				t.Fatalf("compile: %v", err)
			}
			sum := sha256.Sum256([]byte(tc.src))
			got := fmt.Sprintf("script sha256:%s\n%s", hex.EncodeToString(sum[:]), Disassemble(prog))
			path := filepath.Join("testdata", "golden", tc.name+".disasm")
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
			}
			if got != string(want) {
				t.Errorf("disassembly drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestDisassemblyDeterministic compiles each corpus script twice from
// scratch and requires byte-identical listings — the property the golden
// files (and the content-hash code cache) depend on.
func TestDisassemblyDeterministic(t *testing.T) {
	for _, tc := range goldenScripts {
		listing := func() string {
			prog, err := Parse(tc.src)
			if err != nil {
				t.Fatalf("%s: parse: %v", tc.name, err)
			}
			if err := CompileProgram(nil, prog); err != nil {
				t.Fatalf("%s: compile: %v", tc.name, err)
			}
			return Disassemble(prog)
		}
		a, b := listing(), listing()
		if a != b {
			t.Fatalf("%s: non-deterministic disassembly", tc.name)
		}
		if !strings.Contains(a, "== program") {
			t.Fatalf("%s: listing missing program chunk header:\n%s", tc.name, a)
		}
	}
}

// TestParserOperatorsCompile holds the parser to the compiler's operator
// tables: every operator the parser can put in a BinaryExpr, UnaryExpr or
// compound AssignExpr must have an opcode operand, because the compiler
// treats an unknown operator as an internal invariant violation.
func TestParserOperatorsCompile(t *testing.T) {
	for _, level := range binaryLevels {
		for _, op := range level {
			if _, ok := binaryOpIdx[op]; !ok {
				t.Errorf("binary operator %q parses but is not in binaryOps", op)
			}
		}
	}
	tokens := append([]string(nil), puncts...)
	for kw := range keywords {
		tokens = append(tokens, kw)
	}
	unary := 0
	for _, tok := range tokens {
		if prog, err := Parse(tok + " a;"); err == nil {
			if es, ok := prog.Body[0].(*ExprStmt); ok {
				if u, ok := es.X.(*UnaryExpr); ok {
					unary++
					if _, ok := unaryOpIdx[u.Op]; !ok && u.Op != "delete" {
						t.Errorf("unary operator %q parses but is not in unaryOps", u.Op)
					}
				}
			}
		}
		if prog, err := Parse("a " + tok + " b;"); err == nil {
			if es, ok := prog.Body[0].(*ExprStmt); ok {
				if as, ok := es.X.(*AssignExpr); ok && as.Op != "=" {
					if _, ok := binaryOpIdx[as.Op[:len(as.Op)-1]]; !ok {
						t.Errorf("compound assignment %q parses but its operator is not in binaryOps", as.Op)
					}
				}
			}
		}
	}
	if unary != len(unaryOps)+1 {
		t.Errorf("found %d unary operators in the token set, want %d (unaryOps plus delete)", unary, len(unaryOps)+1)
	}
}
