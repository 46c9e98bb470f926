package madave

// Pool hygiene: the zero-allocation work (DESIGN.md §16) keeps hot-path
// scratch in sync.Pools and reusable per-context buffers — the htmlparse
// parse-state pool (tokenizer attribute scratch + node/attr arenas), the
// minijs token-buffer and VM machine pools, and the easylist RequestCtx
// case-fold scratch.
// The failure mode of pooled scratch is not a crash but silent cross-talk:
// a buffer released with stale state leaks one request's bytes into the
// next, and only under concurrency. These tests hammer every pooled site
// from many goroutines and require the results to be byte-identical to a
// serial reference pass over the same inputs. Run under -race by the CI
// test step, they turn "pool reuse corrupted a result" into a hard diff
// and any cross-goroutine scratch sharing into a race report.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"madave/internal/easylist"
	"madave/internal/fuzzutil"
	"madave/internal/htmlparse"
	"madave/internal/minijs"
)

const (
	poolHammerGoroutines = 8
	poolHammerRounds     = 25 // each goroutine replays the whole corpus this many times
)

// adversarialHTML are hand-built documents that stress exactly the state a
// pooled parse must reset: attribute scratch growth then reuse, arena chunk
// boundaries (8/16/32 nodes), raw-text modes, and malformed markup.
func adversarialHTML() []string {
	wideAttrs := "<div"
	for i := 0; i < 40; i++ {
		wideAttrs += fmt.Sprintf(" data-a%d=%q", i, strings.Repeat("v", i))
	}
	wideAttrs += ">wide</div>"
	deep := strings.Repeat("<div>", 70) + "x" + strings.Repeat("</div>", 70)
	docs := []string{
		wideAttrs,     // grows the attr scratch far beyond its default
		"<p>tiny</p>", // immediately reuses the grown scratch on a tiny doc
		deep,          // crosses every node-arena chunk boundary
		"<script>var a = \"</scripty>\";</script><p>x</p>", // raw-text close-tag handling
		"<!-->rest<div>text</div>",                         // short-comment bug seed
		"<iframe src=http://ads.example.com/slot1>",
		"<em <" + strings.Repeat("&", 30),
		"",
	}
	return append(docs, fuzzutil.Pages(0x9001, 16)...)
}

// parseDigest reduces one parse to a comparable byte string: the rendered
// tree plus a node count. Any pooled-state leak shows up as a diff.
func parseDigest(src string) string {
	doc := htmlparse.Parse(src)
	n := 0
	var walk func(*htmlparse.Node)
	walk = func(nd *htmlparse.Node) {
		n++
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(doc)
	return fmt.Sprintf("nodes=%d render=%s", n, doc.Render())
}

// hammer replays fn over the corpus serially to build a golden digest per
// input, then replays the identical corpus from poolHammerGoroutines
// goroutines and requires byte equality with the golden on every iteration.
func hammer(t *testing.T, n int, fn func(i int) string) {
	t.Helper()
	golden := make([]string, n)
	for i := range golden {
		golden[i] = fn(i)
	}
	var wg sync.WaitGroup
	errs := make(chan string, poolHammerGoroutines)
	for g := 0; g < poolHammerGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < poolHammerRounds; round++ {
				// Stagger start offsets so goroutines collide on different
				// inputs at the same instant.
				for k := 0; k < n; k++ {
					i := (k + g*3 + round) % n
					if got := fn(i); got != golden[i] {
						select {
						case errs <- fmt.Sprintf("goroutine %d round %d input %d:\n got  %q\n want %q", g, round, i, got, golden[i]):
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPoolHygieneHTMLParse hammers the htmlparse parse-state pool (the
// pooled tokenizer, its attribute scratch, and the node/attr arenas).
func TestPoolHygieneHTMLParse(t *testing.T) {
	docs := adversarialHTML()
	hammer(t, len(docs), func(i int) string { return parseDigest(docs[i]) })
}

// TestPoolHygieneMinijsVM hammers the minijs machine pool: programs are
// compiled once and the shared bytecode is executed concurrently on pooled
// machines, exactly how the crawler's parallel browsers share the code
// cache. Each execution must produce the serial result byte for byte.
func TestPoolHygieneMinijsVM(t *testing.T) {
	srcs := append(fuzzutil.Scripts(0x9002, 16),
		// Stress the VM scratch directly: string building (scratch byte
		// buffers), array growth (object arena chunks), eval re-entry.
		`var s=""; for (var i=0;i<50;i++){ s += "x"+i; } s;`,
		`var a=[]; for (var i=0;i<100;i++){ a.push(i*i); } a.join(",");`,
		`eval("1+2") + eval("'a'+'b'");`,
	)
	progs := make([]*minijs.Program, 0, len(srcs))
	for _, src := range srcs {
		prog, errsyn := minijs.ParseTolerant(src)
		if len(errsyn) > 0 {
			continue
		}
		if err := minijs.CompileProgram(context.Background(), prog); err != nil {
			continue
		}
		progs = append(progs, prog)
	}
	if len(progs) < 10 {
		t.Fatalf("only %d runnable programs; corpus too small to exercise the pool", len(progs))
	}
	run := func(i int) string {
		v, err := minijs.New().RunProgram(progs[i])
		return fmt.Sprintf("v=%s err=%v", minijs.ToString(v), err)
	}
	hammer(t, len(progs), run)
}

// TestPoolHygieneMinijsParse hammers the minijs token-buffer pool: strict
// and tolerant parses of scripts of mixed sizes, one too large to be pooled
// and some malformed, must compile to the serial pass's bytecode and report
// its diagnostics.
func TestPoolHygieneMinijsParse(t *testing.T) {
	srcs := append(fuzzutil.Scripts(0x9003, 16),
		strings.Repeat("var a = 'x' + 1;\n", 1000), // more tokens than the pool keeps
		`x = 1`, // a tiny script right after the big one
		`var s = "unterminated`,
		`if (a { b(); } c = "esc\x41pe";`,
	)
	digest := func(i int) string {
		var b strings.Builder
		for _, tolerant := range []bool{false, true} {
			var prog *minijs.Program
			var err error
			var errs []*minijs.SyntaxError
			if tolerant {
				prog, errs = minijs.ParseTolerant(srcs[i])
			} else {
				prog, err = minijs.Parse(srcs[i])
			}
			fmt.Fprintf(&b, "tolerant=%v err=%v errs=%v\n", tolerant, err, errs)
			if prog != nil && minijs.CompileProgram(context.Background(), prog) == nil {
				b.WriteString(minijs.Disassemble(prog))
			}
		}
		return b.String()
	}
	hammer(t, len(srcs), digest)
}

// TestPoolHygieneEasylistCtx hammers the easylist RequestCtx fold scratch:
// one shared List, per-goroutine contexts reused across requests whose
// URLs mix cases and lengths so the fold buffer constantly grows and
// shrinks. MatchCtx decisions must match the serial reference.
func TestPoolHygieneEasylistCtx(t *testing.T) {
	list, err := easylist.ParseString(strings.Join([]string{
		"||ads.example.com^",
		"||TRACKER.example.net^$third-party",
		"/banner/*/img^",
		"|http://popup.",
		"@@||ads.example.com/whitelisted^$subdocument",
		"bad*word$script,domain=pub.example|~safe.pub.example",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []easylist.Request{
		{URL: "http://ads.example.com/slot1", Type: easylist.TypeSubdocument, DocHost: "pub.example"},
		{URL: "http://ADS.EXAMPLE.COM/SLOT2?" + strings.Repeat("UPPER=1&", 30), Type: easylist.TypeSubdocument, DocHost: "pub.example"},
		{URL: "http://tracker.example.net/px.gif", Type: easylist.TypeImage, DocHost: "pub.example"},
		{URL: "http://tracker.example.net/px.gif", Type: easylist.TypeImage, DocHost: "tracker.example.net"},
		{URL: "http://cdn.example.org/banner/2014/img.png", Type: easylist.TypeImage, DocHost: "pub.example"},
		{URL: "http://popup.example.biz/", Type: easylist.TypeDocument, DocHost: "pub.example"},
		{URL: "http://ads.example.com/whitelisted/creative", Type: easylist.TypeSubdocument, DocHost: "pub.example"},
		{URL: "http://static.pub.example/js/BADWORD.js", Type: easylist.TypeScript, DocHost: "pub.example"},
		{URL: "http://static.pub.example/js/badword.js", Type: easylist.TypeScript, DocHost: "safe.pub.example"},
		{URL: "http://benign.example.org/article?id=42", Type: easylist.TypeDocument, DocHost: "pub.example"},
	}
	digest := func(c *easylist.RequestCtx, i int) string {
		blocked, rule := list.MatchCtx(c, reqs[i])
		raw := ""
		if rule != nil {
			raw = rule.Raw
		}
		return fmt.Sprintf("blocked=%v rule=%q", blocked, raw)
	}

	// Serial golden with a single reused context — scratch reuse across
	// requests is part of what is being verified.
	serialCtx := easylist.NewRequestCtx()
	golden := make([]string, len(reqs))
	for i := range reqs {
		golden[i] = digest(serialCtx, i)
	}

	var wg sync.WaitGroup
	for g := 0; g < poolHammerGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := easylist.NewRequestCtx()
			for round := 0; round < poolHammerRounds; round++ {
				for k := range reqs {
					i := (k + g*3 + round) % len(reqs)
					if got := digest(c, i); got != golden[i] {
						t.Errorf("goroutine %d round %d req %d: got %q want %q", g, round, i, got, golden[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
