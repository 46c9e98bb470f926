package madave

// TestEvalEquivalenceTreeWalkVsCompiled is the corpus-level engine gate:
// every script the honeyclient's browser executes over a simulated corpus
// must give the same observable result on the bytecode VM (minijs.New, the
// only production engine) and on the tree-walking reference
// (minijs.NewReference). The differential fuzzer covers generated scripts;
// this covers the creatives the pipeline actually runs.

import (
	"net/http"
	"sort"
	"strings"
	"testing"

	"madave/internal/browser"
	"madave/internal/memnet"
	"madave/internal/minijs"
)

// corpusScriptPrelude stands in for the browser's host bindings: the
// benchmark's DOM stubs, a document.write and body.appendChild that record
// their markup in a global (so the compared globals include everything a
// script put in the page), and a setTimeout that runs its callback at once.
const corpusScriptPrelude = benchMinijsStubs + `
var written = "";
document.write = function (s) { written += s; return s.length; };
document.createElement = function (tag) { return { tagName: tag }; };
document.body = { appendChild: function (el) {
	written += "<" + el.tagName + " href=" + el.href + " src=" + el.src + ">" + el.innerHTML;
	return el;
} };
var setTimeout = function (f, ms) { if (typeof f == "function") { f(); } return 0; };
`

func TestEvalEquivalenceTreeWalkVsCompiled(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus equivalence sweep is not a -short test")
	}
	cfg := DefaultConfig()
	cfg.Seed = 33
	cfg.CrawlSites = 400
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corp, _ := s.CrawlSubset(s.Web.TopSlice(cfg.CrawlSites))
	ads := corp.All()
	if len(ads) == 0 {
		t.Fatal("empty corpus")
	}

	client := &http.Client{
		Transport: &memnet.Transport{U: s.Universe},
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	seen := map[string]bool{}
	var scripts []string
	var collect func(p *browser.Page)
	collect = func(p *browser.Page) {
		for _, src := range p.Scripts {
			if !seen[src] {
				seen[src] = true
				scripts = append(scripts, src)
			}
		}
		for _, f := range p.Frames {
			collect(f)
		}
	}
	for _, ad := range ads {
		b := browser.New(client, browser.HoneyclientProfile())
		b.TolerantJS = true
		page, err := b.Load(ad.FrameURL, "")
		if err != nil {
			t.Fatalf("load %s: %v", ad.FrameURL, err)
		}
		collect(page)
	}
	if len(scripts) == 0 {
		t.Fatal("the corpus executed no scripts")
	}

	clean := 0
	for _, src := range scripts {
		ref := runCorpusScript(t, minijs.NewReference(), src)
		vm := runCorpusScript(t, minijs.New(), src)
		if ref.value != vm.value || ref.err != vm.err || ref.globals != vm.globals {
			t.Fatalf("engine divergence on script:\n%s\n reference: %+v\n        vm: %+v", src, ref, vm)
		}
		// Batched step charges overshoot zero by different amounts, so the
		// remainders agree only when the budget did not stop the script.
		if ref.err != minijs.ErrBudget.Error() && ref.budget != vm.budget {
			t.Fatalf("step-count divergence (reference %d, vm %d) on script:\n%s", ref.budget, vm.budget, src)
		}
		if ref.err == "" {
			clean++
		}
	}
	t.Logf("%d ads, %d distinct scripts (%d ran without error): reference and VM agree", len(ads), len(scripts), clean)
}

// corpusRun is what one engine's execution of a script leaves observable.
type corpusRun struct {
	value, err, globals string
	budget              int
}

// runCorpusScript runs the prelude and then src on in, parsing src the way
// the honeyclient does (error-tolerant).
func runCorpusScript(t *testing.T, in *minijs.Interp, src string) corpusRun {
	t.Helper()
	if _, err := in.Run(corpusScriptPrelude); err != nil {
		t.Fatalf("prelude: %v", err)
	}
	prog, _ := minijs.ParseTolerant(src)
	var r corpusRun
	v, err := in.RunProgram(prog)
	r.value = minijs.ToString(v)
	if err != nil {
		r.err = err.Error()
	}
	r.budget = in.Budget
	var globals []string
	in.Global.Each(func(name string, v minijs.Value) {
		globals = append(globals, name+"="+minijs.ToString(v))
	})
	sort.Strings(globals)
	r.globals = strings.Join(globals, "\n")
	return r
}
