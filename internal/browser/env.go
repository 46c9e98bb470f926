package browser

import (
	"context"
	"strconv"
	"strings"

	"madave/internal/htmlparse"
	"madave/internal/minijs"
	"madave/internal/urlx"
)

// runScripts executes every inline <script> in the page's DOM, in document
// order, inside a shared execution context. document.write output is parsed
// and appended to the document after each script, and any scripts it
// produced are executed too (bounded). setTimeout callbacks run after the
// synchronous pass, ordered by delay — the browser's logical event loop.
func (b *Browser) runScripts(reqCtx context.Context, page *Page, sandboxed bool) {
	// A page with no inline scripts can never execute anything (external
	// scripts run only when an inline script appendChilds them), so skip
	// building the interpreter and host environment entirely.
	if !hasInlineScript(page.Doc) {
		return
	}
	ctx := &scriptCtx{b: b, page: page, sandboxed: sandboxed, reqCtx: reqCtx}
	interp := minijs.New()
	interp.Budget = b.ScriptBudget
	interp.Host = ctx
	ctx.install(interp)

	executed := map[*htmlparse.Node]bool{}
	inlineSeq := 0
	// Rounds: each round executes scripts not yet run (including ones that
	// document.write introduced in the previous round).
	for round := 0; round < 5; round++ {
		scripts := page.Doc.Find("script")
		ran := false
		for _, s := range scripts {
			if executed[s] {
				continue
			}
			executed[s] = true
			if _, external := s.Attr("src"); external {
				continue // external scripts are fetched as resources, not executed
			}
			src := s.InnerText()
			if strings.TrimSpace(src) == "" {
				continue
			}
			ran = true
			page.Scripts = append(page.Scripts, src)
			ctx.curScript = inlineScriptID(page.FrameID, inlineSeq)
			inlineSeq++
			ctx.runScript(interp, src, "script: ")
			ctx.flushWrites()
		}
		if !ran {
			break
		}
	}

	// Drain timers (setTimeout callbacks may queue more timers and writes).
	for pass := 0; pass < 5 && len(ctx.timers) > 0; pass++ {
		timers := ctx.timers
		ctx.timers = nil
		sortTimers(timers)
		for _, t := range timers {
			ctx.curScript = t.writer
			if _, err := interp.CallFunction(t.fn, minijs.Undefined(), nil); err != nil {
				page.Errors = append(page.Errors, "timer: "+err.Error())
			}
			ctx.flushWrites()
		}
	}
}

// inlineScriptID names the n-th inline script executed in a frame; the
// frame-qualified form keeps script identities distinct across frames in
// the flowgraph.
func inlineScriptID(frameID string, n int) string {
	return "inline:" + frameID + ":" + strconv.Itoa(n)
}

// hasInlineScript reports whether the document holds at least one inline
// (src-less, non-blank) script element.
func hasInlineScript(doc *htmlparse.Node) bool {
	found := false
	doc.Walk(func(n *htmlparse.Node) bool {
		if n.Type == htmlparse.ElementNode && n.Tag == "script" {
			if _, external := n.Attr("src"); !external && strings.TrimSpace(n.InnerText()) != "" {
				found = true
			}
		}
		return !found
	})
	return found
}

// scriptCtx carries the per-document state the host bindings mutate.
type scriptCtx struct {
	b         *Browser
	page      *Page
	sandboxed bool
	// reqCtx bounds every network fetch a script triggers (navigations,
	// external script loads) with the page visit's deadline.
	reqCtx   context.Context
	writeBuf strings.Builder
	timers   []timerEntry
	timerSeq int
	navCount int
	// elements maps wrapped element objects back to their DOM nodes
	// (createElement / getElementById results).
	elements map[*minijs.Object]*htmlparse.Node
	// externalRan guards against re-running the same external script URL.
	externalRan map[string]bool
	// curScript identifies the script currently executing (an inline script
	// ID or an external script URL), the provenance stamped onto DOM writes
	// and script-driven fetches.
	curScript string
}

// nodeOf resolves a wrapped element object to its DOM node.
func (ctx *scriptCtx) nodeOf(el *minijs.Object) *htmlparse.Node {
	return ctx.elements[el]
}

// runExternalScript fetches a script URL and executes its body in the
// document's context (the appendChild ad-loader path).
func (ctx *scriptCtx) runExternalScript(in *minijs.Interp, src string) {
	abs := urlx.Resolve(ctx.page.FinalURL, src)
	if abs == "" {
		return
	}
	if ctx.externalRan == nil {
		ctx.externalRan = map[string]bool{}
	}
	if ctx.externalRan[abs] {
		return
	}
	ctx.externalRan[abs] = true

	res := Resource{URL: abs, Tag: "script"}
	ctx.b.stampOrigin(ctx.page.FrameID, ctx.curScript, "script")
	resp, err := ctx.b.get(ctx.reqCtx, abs, ctx.page.FinalURL)
	if err != nil {
		res.Err = err.Error()
		ctx.page.Resources = append(ctx.page.Resources, res)
		return
	}
	body := readCapped(resp)
	resp.Body.Close()
	res.Status = resp.StatusCode
	res.ContentType = mediaType(resp.Header.Get("Content-Type"))
	ctx.page.Resources = append(ctx.page.Resources, res)
	if resp.StatusCode != 200 {
		return
	}
	src2 := string(body)
	ctx.page.Scripts = append(ctx.page.Scripts, src2)
	prev := ctx.curScript
	ctx.curScript = abs
	ctx.runScript(in, src2, "external script: ")
	ctx.flushWrites()
	ctx.curScript = prev
}

// runScript parses, compiles and executes one script body, recording parse
// diagnostics and runtime errors under the given prefix. The compile runs
// under the page's request context, so a visit that has run out of time
// records the context's error instead of running the script.
func (ctx *scriptCtx) runScript(in *minijs.Interp, src, label string) {
	var prog *minijs.Program
	var perrs []*minijs.SyntaxError
	var err error
	if ctx.b.TolerantJS {
		prog, perrs = minijs.ParseTolerant(src)
	} else {
		prog, err = minijs.Parse(src)
	}
	if err == nil {
		err = minijs.CompileProgram(ctx.reqCtx, prog)
	}
	if err != nil {
		ctx.page.Errors = append(ctx.page.Errors, label+err.Error())
		return
	}
	// Tolerant-mode recovery diagnostics are observations, not failures:
	// they land in Page.Errors and the recovered program still runs.
	for _, pe := range perrs {
		ctx.page.Errors = append(ctx.page.Errors, label+pe.Error())
	}
	if _, rerr := in.RunProgram(prog); rerr != nil {
		ctx.page.Errors = append(ctx.page.Errors, label+rerr.Error())
	}
}

// maxFollowedNavigations bounds how many script navigations the browser
// chases per document.
const maxFollowedNavigations = 3

// install defines the host objects: document, window, top, navigator,
// screen, location, setTimeout — and overrides Math.random with the
// browser's deterministic stream.

// hostCtx recovers the script context from the interpreter's Host slot; the
// shared host natives below use it instead of capturing ctx in per-frame
// closures (one interpreter serves exactly one document, so Host is stable
// for the natives' whole lifetime).
func hostCtx(in *minijs.Interp) *scriptCtx { return in.Host.(*scriptCtx) }

// Shared host natives: built once, installed into every document's
// environment. Everything per-document they touch comes through hostCtx.
var (
	natDocWrite = minijs.NewSharedNative("write", func(in *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		ctx := hostCtx(in)
		for _, a := range args {
			ctx.writeBuf.WriteString(minijs.ToString(a))
		}
		return minijs.Undefined(), nil
	})
	// createElement / appendChild: the asynchronous ad-loader pattern
	// (`var s = document.createElement("script"); s.src = ...;
	// document.body.appendChild(s);`). Appended images and iframes land in
	// the DOM and are fetched by the post-script resource/frame passes;
	// appended external scripts are fetched and executed immediately.
	natCreateElement = minijs.NewSharedNative("createElement", func(in *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		tag := strings.ToLower(minijs.ToString(argOr(args, 0)))
		node := &htmlparse.Node{Type: htmlparse.ElementNode, Tag: tag}
		return hostCtx(in).wrapElement(in, node).Value(), nil
	})
	natAppendChild = minijs.NewSharedNative("appendChild", func(in *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		ctx := hostCtx(in)
		el := argOr(args, 0).Obj()
		if el == nil {
			return minijs.Undefined(), nil
		}
		node := ctx.nodeOf(el)
		if node == nil {
			return argOr(args, 0), nil
		}
		target := ctx.page.Doc.FindFirst("body")
		if target == nil {
			target = ctx.page.Doc
		}
		node.Parent = target
		target.Children = append(target.Children, node)
		// appendChild is a DOM write like document.write, just element-wise.
		ctx.page.DOMWrites = append(ctx.page.DOMWrites, DOMWrite{Writer: ctx.curScript, Tags: []string{node.Tag}})
		// Script elements with a src execute on insertion.
		if node.Tag == "script" {
			if src, has := node.Attr("src"); has && src != "" {
				ctx.runExternalScript(in, src)
			}
		}
		return argOr(args, 0), nil
	})
	natGetElementByID = minijs.NewSharedNative("getElementById", func(in *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		ctx := hostCtx(in)
		id := minijs.ToString(argOr(args, 0))
		var found *htmlparse.Node
		ctx.page.Doc.Walk(func(n *htmlparse.Node) bool {
			if found == nil && n.Type == htmlparse.ElementNode && n.AttrOr("id", "") == id {
				found = n
				return false
			}
			return found == nil
		})
		if found == nil {
			return minijs.Null(), nil
		}
		return ctx.wrapElement(in, found).Value(), nil
	})
	natLocReplace = minijs.NewSharedNative("replace", func(in *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		hostCtx(in).navigate(NavLocation, minijs.ToString(argOr(args, 0)))
		return minijs.Undefined(), nil
	})
	natLocToString = minijs.NewSharedNative("toString", func(in *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		return minijs.Str(hostCtx(in).page.FinalURL), nil
	})
	natSetTimeout = minijs.NewSharedNative("setTimeout", func(in *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		ctx := hostCtx(in)
		if len(args) == 0 {
			return minijs.Num(0), nil
		}
		delay := 0.0
		if len(args) > 1 {
			delay = minijs.ToNumber(args[1])
		}
		ctx.timerSeq++
		ctx.timers = append(ctx.timers, timerEntry{delay: delay, seq: ctx.timerSeq, fn: args[0], writer: ctx.curScript})
		return minijs.Num(float64(ctx.timerSeq)), nil
	})
	natClearTimeout = minijs.NewSharedNative("clearTimeout", func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		return minijs.Undefined(), nil
	})

	// Date: a logical, fixed clock (Browser.ClockMillis) so runs reproduce.
	// Supports the idioms ad scripts use: Date.now(), new Date().getTime(),
	// getHours(), getDay(), getMinutes().
	natDateNow = minijs.NewSharedNative("now", func(in *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		return minijs.Num(float64(hostCtx(in).b.ClockMillis)), nil
	})
	natDateGetTime = minijs.NewSharedNative("getTime", func(in *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		return minijs.Num(float64(hostCtx(in).b.ClockMillis)), nil
	})
	natDateGetHours = minijs.NewSharedNative("getHours", func(in *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		return minijs.Num(float64(hostCtx(in).b.ClockMillis / 3_600_000 % 24)), nil
	})
	natDateGetDay = minijs.NewSharedNative("getDay", func(in *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		// Day 0 (1970-01-01) was a Thursday = weekday 4.
		return minijs.Num(float64((hostCtx(in).b.ClockMillis/86_400_000 + 4) % 7)), nil
	})
	natDateGetMinutes = minijs.NewSharedNative("getMinutes", func(in *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		return minijs.Num(float64(hostCtx(in).b.ClockMillis / 60_000 % 60)), nil
	})
	natDateCtor = func() *minijs.Object {
		o := minijs.NewSharedNative("Date", func(in *minijs.Interp, this minijs.Value, _ []minijs.Value) (minijs.Value, error) {
			obj := this.Obj()
			if obj == nil {
				// Date() called as a function.
				return minijs.Num(float64(hostCtx(in).b.ClockMillis)), nil
			}
			obj.Props["getTime"] = natDateGetTime.Value()
			obj.Props["getHours"] = natDateGetHours.Value()
			obj.Props["getDay"] = natDateGetDay.Value()
			obj.Props["getMinutes"] = natDateGetMinutes.Value()
			return minijs.Undefined(), nil
		})
		o.Props = map[string]minijs.Value{"now": natDateNow.Value()}
		return o
	}()
)

func (ctx *scriptCtx) install(in *minijs.Interp) {
	g := in.Global

	// document ----------------------------------------------------------
	doc := in.NewObject()
	doc.Name = "document"
	doc.Props["URL"] = minijs.Str(ctx.page.FinalURL)
	doc.Props["referrer"] = minijs.Str("")
	docHost := urlx.Host(ctx.page.FinalURL)
	doc.GetTrap = func(name string) (minijs.Value, bool) {
		if name == "cookie" {
			return minijs.Str(ctx.b.cookieHeader(docHost)), true
		}
		return minijs.Value{}, false
	}
	doc.SetTrap = func(name string, v minijs.Value) bool {
		if name == "cookie" {
			ctx.b.setCookie(docHost, minijs.ToString(v))
			return true
		}
		return false
	}
	doc.Props["write"] = natDocWrite.Value()
	doc.Props["writeln"] = doc.Props["write"]
	doc.Props["createElement"] = natCreateElement.Value()
	body := in.NewObject()
	body.Name = "document.body"
	body.Props["appendChild"] = natAppendChild.Value()
	doc.Props["body"] = body.Value()
	doc.Props["getElementById"] = natGetElementByID.Value()
	g.Define("document", doc.Value())

	// navigator / screen --------------------------------------------------
	// Pure functions of the Profile, so they are built once per Browser as
	// frozen shared objects rather than per frame (writes are silently
	// ignored, like the shared builtin method objects).
	if ctx.b.navObj == nil {
		nav := minijs.NewObject()
		nav.Name = "navigator"
		nav.Props["userAgent"] = minijs.Str(ctx.b.Profile.UserAgent)
		plugins := minijs.NewArray()
		for _, p := range ctx.b.Profile.Plugins {
			po := minijs.NewObject()
			po.Props["name"] = minijs.Str(p.Name)
			po.Props["version"] = minijs.Num(p.Version)
			po.Freeze()
			plugins.Elems = append(plugins.Elems, po.Value())
		}
		plugins.Freeze()
		nav.Props["plugins"] = plugins.Value()
		nav.Freeze()
		ctx.b.navObj = nav

		screen := minijs.NewObject()
		screen.Name = "screen"
		screen.Props["width"] = minijs.Num(float64(ctx.b.Profile.ScreenW))
		screen.Props["height"] = minijs.Num(float64(ctx.b.Profile.ScreenH))
		screen.Freeze()
		ctx.b.screenObj = screen
	}
	g.Define("navigator", ctx.b.navObj.Value())
	g.Define("screen", ctx.b.screenObj.Value())

	// location -------------------------------------------------------------
	loc := in.NewObject()
	loc.Name = "location"
	loc.GetTrap = func(name string) (minijs.Value, bool) {
		switch name {
		case "href":
			return minijs.Str(ctx.page.FinalURL), true
		case "host":
			return minijs.Str(urlx.Host(ctx.page.FinalURL)), true
		case "protocol":
			return minijs.Str("http:"), true
		}
		return minijs.Value{}, false
	}
	loc.SetTrap = func(name string, v minijs.Value) bool {
		if name == "href" {
			ctx.navigate(NavLocation, minijs.ToString(v))
			return true
		}
		return false
	}
	loc.Props["replace"] = natLocReplace.Value()
	loc.Props["toString"] = natLocToString.Value()
	g.Define("location", loc.Value())

	// top ------------------------------------------------------------------
	top := in.NewObject()
	top.Name = "top"
	topLoc := in.NewObject()
	topLoc.Name = "top.location"
	topLoc.SetTrap = func(name string, v minijs.Value) bool {
		if name == "href" {
			ctx.navigate(NavTop, minijs.ToString(v))
			return true
		}
		return false
	}
	top.Props["location"] = topLoc.Value()
	top.SetTrap = func(name string, v minijs.Value) bool {
		if name == "location" {
			ctx.navigate(NavTop, minijs.ToString(v))
			return true
		}
		return false
	}
	g.Define("top", top.Value())
	g.Define("parent", top.Value())

	// window ----------------------------------------------------------------
	win := in.NewObject()
	win.Name = "window"
	win.Props["document"] = doc.Value()
	win.Props["navigator"] = ctx.b.navObj.Value()
	win.Props["screen"] = ctx.b.screenObj.Value()
	win.Props["top"] = top.Value()
	win.Props["innerWidth"] = minijs.Num(float64(ctx.b.Profile.ScreenW))
	win.Props["innerHeight"] = minijs.Num(float64(ctx.b.Profile.ScreenH))
	win.GetTrap = func(name string) (minijs.Value, bool) {
		if name == "location" {
			return loc.Value(), true
		}
		return minijs.Value{}, false
	}
	win.SetTrap = func(name string, v minijs.Value) bool {
		if name == "location" {
			ctx.navigate(NavLocation, minijs.ToString(v))
			return true
		}
		return false
	}
	g.Define("window", win.Value())
	g.Define("self", win.Value())

	// setTimeout --------------------------------------------------------------
	g.Define("setTimeout", natSetTimeout.Value())
	win.Props["setTimeout"] = natSetTimeout.Value()
	g.Define("clearTimeout", natClearTimeout.Value())

	// Date: a logical, fixed clock so runs reproduce (see the shared
	// natDate* natives; the clock lives on the Browser).
	g.Define("Date", natDateCtor.Value())

	// Deterministic Math.random from the browser's RNG stream.
	if mathV, ok := g.Lookup("Math"); ok {
		if mathObj := mathV.Obj(); mathObj != nil {
			rng := ctx.b.RNG.Fork("mathrandom:" + ctx.page.FinalURL)
			mathObj.Props["random"] = in.NewNative("random", func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
				return minijs.Num(rng.Float64()), nil
			}).Value()
		}
	}
}

// elementAttrs are the element properties scripts read and write that map
// straight onto HTML attributes.
var elementAttrs = map[string]bool{
	"src": true, "href": true, "id": true, "width": true, "height": true,
	"name": true, "type": true, "class": true,
}

// wrapElement exposes a DOM node to scripts: innerHTML, attribute-backed
// properties (src, href, width, ...), and identity for appendChild.
func (ctx *scriptCtx) wrapElement(in *minijs.Interp, n *htmlparse.Node) *minijs.Object {
	o := in.NewObject()
	o.Name = "element:" + n.Tag
	o.Props["tagName"] = minijs.Str(strings.ToUpper(n.Tag))
	o.GetTrap = func(name string) (minijs.Value, bool) {
		if name == "innerHTML" {
			inner := ""
			for _, c := range n.Children {
				inner += c.Render()
			}
			return minijs.Str(inner), true
		}
		if elementAttrs[name] {
			return minijs.Str(n.AttrOr(name, "")), true
		}
		return minijs.Value{}, false
	}
	o.SetTrap = func(name string, v minijs.Value) bool {
		if name == "innerHTML" {
			frag := htmlparse.Parse(minijs.ToString(v))
			n.Children = frag.Children
			return true
		}
		if elementAttrs[name] {
			n.SetAttr(name, minijs.ToString(v))
			return true
		}
		return false
	}
	if ctx.elements == nil {
		ctx.elements = map[*minijs.Object]*htmlparse.Node{}
	}
	ctx.elements[o] = n
	return o
}

// navigate records (and, within limits, follows) a script navigation.
func (ctx *scriptCtx) navigate(kind NavigationKind, target string) {
	abs := urlx.Resolve(ctx.page.FinalURL, target)
	if abs == "" {
		abs = target
	}
	nav := Navigation{Kind: kind, Target: abs}

	// Sandbox policy: a sandboxed frame may not navigate the top page
	// unless allow-top-navigation was granted — the §4.4 countermeasure.
	if kind == NavTop && ctx.sandboxed && !ctx.b.sandboxAllows(ctx.page, "allow-top-navigation") {
		nav.Blocked = true
		ctx.page.Navigations = append(ctx.page.Navigations, nav)
		return
	}

	if ctx.b.FollowNavigations && ctx.navCount < maxFollowedNavigations {
		ctx.navCount++
		// "nav-top" vs "nav-location" in the trace lets the flowgraph
		// separate §2.3 top-hijacks from same-frame script navigations.
		ctx.b.stampOrigin(ctx.page.FrameID, ctx.curScript, "nav-"+string(kind))
		resp, err := ctx.b.get(ctx.reqCtx, abs, ctx.page.FinalURL)
		if err != nil {
			nav.NXDomain = IsNXDomain(err)
		} else {
			nav.Status = resp.StatusCode
			nav.ContentType = mediaType(resp.Header.Get("Content-Type"))
			body := readCapped(resp)
			resp.Body.Close()
			if isDownloadType(nav.ContentType) {
				ctx.page.Downloads = append(ctx.page.Downloads, Download{
					URL: abs, ContentType: nav.ContentType, Body: body,
				})
			}
			// Follow one level of redirect so exe-behind-302 is observed.
			if resp.StatusCode >= 300 && resp.StatusCode < 400 {
				if loc := resp.Header.Get("Location"); loc != "" {
					next := urlx.Resolve(abs, loc)
					ctx.b.stampOrigin(ctx.page.FrameID, abs, "redirect")
					if resp2, err2 := ctx.b.get(ctx.reqCtx, next, abs); err2 == nil {
						ct2 := mediaType(resp2.Header.Get("Content-Type"))
						body2 := readCapped(resp2)
						resp2.Body.Close()
						if isDownloadType(ct2) {
							ctx.page.Downloads = append(ctx.page.Downloads, Download{
								URL: next, ContentType: ct2, Body: body2,
							})
						}
					}
				}
			}
		}
	}
	ctx.page.Navigations = append(ctx.page.Navigations, nav)
}

// flushWrites parses accumulated document.write output and appends it to
// the document body (or root), recording the flush against the writing
// script for the flowgraph's writes-DOM edges.
func (ctx *scriptCtx) flushWrites() {
	if ctx.writeBuf.Len() == 0 {
		return
	}
	frag := htmlparse.Parse(ctx.writeBuf.String())
	ctx.writeBuf.Reset()
	target := ctx.page.Doc.FindFirst("body")
	if target == nil {
		target = ctx.page.Doc
	}
	var tags []string
	for _, c := range frag.Children {
		target.Children = append(target.Children, c)
		c.Parent = target
		if c.Type == htmlparse.ElementNode {
			tags = append(tags, c.Tag)
		}
	}
	ctx.page.DOMWrites = append(ctx.page.DOMWrites, DOMWrite{Writer: ctx.curScript, Tags: tags})
}

func argOr(args []minijs.Value, i int) minijs.Value {
	if i < len(args) {
		return args[i]
	}
	return minijs.Undefined()
}
