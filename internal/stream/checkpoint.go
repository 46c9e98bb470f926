package stream

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"madave/internal/stats"
)

// seqRange is an inclusive run of folded sequence numbers; the done-set
// lives and checkpoints as merged ranges (a healthy stream is one range, so
// the checkpoint stays O(gaps), not O(visits)).
type seqRange struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// adCount pairs an ad hash with its impression count.
type adCount struct {
	Hash string `json:"h"`
	N    int    `json:"n"`
}

// kvInt is one histogram bucket in checkpoint form.
type kvInt struct {
	V int `json:"v"`
	N int `json:"n"`
}

// aggState is the checkpoint serialization of an Agg: every map rendered as
// a sorted slice so the payload (and hence its content hash) is canonical.
type aggState struct {
	Done       []seqRange       `json:"done,omitempty"`
	Visits     int              `json:"visits"`
	PageErrors int              `json:"page_errors"`
	Frames     int              `json:"frames"`
	AdFrames   int              `json:"ad_frames"`
	NonAd      int              `json:"nonad"`
	Sandboxed  int              `json:"sandboxed"`
	Degraded   int              `json:"degraded"`
	ErrCauses  []stats.KV       `json:"err_causes,omitempty"`
	Categories []stats.KV       `json:"categories,omitempty"`
	Networks   []stats.KV       `json:"networks,omitempty"`
	MalNets    []stats.KV       `json:"mal_nets,omitempty"`
	UniqueAds  []adCount        `json:"unique_ads,omitempty"`
	Chain      stats.IntMoments `json:"chain"`
	ChainHist  []kvInt          `json:"chain_hist,omitempty"`
	DayAds     []kvInt          `json:"day_ads,omitempty"`
	// Flow-graph accumulators; all omitempty, so graph-off checkpoints are
	// byte-identical to pre-graph ones (and old checkpoints restore cleanly).
	GraphScanned   int     `json:"graph_scanned,omitempty"`
	GraphFlagged   int     `json:"graph_flagged,omitempty"`
	GraphXOrigin   int     `json:"graph_xorigin,omitempty"`
	GraphEdges     int     `json:"graph_edges,omitempty"`
	GraphChainHist []kvInt `json:"graph_chain_hist,omitempty"`

	// plainHashes records that no UniqueAds hash needs JSON escaping, so
	// the encoder may copy them without scanning.
	plainHashes bool
}

// checkpoint snapshots the aggregate in canonical form. Only the hashes
// first seen since the previous checkpoint are sorted; everything else is
// copied, so the cost is O(state) and flat in visits. The snapshot owns its
// slices.
func (a *Agg) checkpoint() aggState {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mergeFresh()
	return aggState{
		Done:           slices.Clone(a.done),
		Visits:         a.visits,
		PageErrors:     a.pageErrors,
		Frames:         a.frames,
		AdFrames:       a.adFrames,
		NonAd:          a.nonAd,
		Sandboxed:      a.sandboxed,
		Degraded:       a.degraded,
		ErrCauses:      a.errCauses.Sorted(),
		Categories:     a.categories.Sorted(),
		Networks:       a.networks.Sorted(),
		MalNets:        a.malNets.Sorted(),
		UniqueAds:      slices.Clone(a.ads),
		Chain:          a.chain,
		ChainHist:      histBuckets(&a.chainHist),
		DayAds:         histBuckets(&a.dayAds),
		GraphScanned:   a.graphScanned,
		GraphFlagged:   a.graphFlagged,
		GraphXOrigin:   a.graphXOrigin,
		GraphEdges:     a.graphEdges,
		GraphChainHist: histBuckets(&a.graphChainHist),
		plainHashes:    a.escHashes == 0,
	}
}

// mergeFresh sorts the hashes first seen since the last checkpoint and
// merges them into the sorted ad table in one backward pass.
func (a *Agg) mergeFresh() {
	if len(a.fresh) == 0 {
		return
	}
	add := make([]adCount, 0, len(a.fresh))
	for h, n := range a.fresh {
		add = append(add, adCount{Hash: h, N: n})
	}
	slices.SortFunc(add, func(x, y adCount) int { return strings.Compare(x.Hash, y.Hash) })
	i, j := len(a.ads)-1, len(add)-1
	a.ads = slices.Grow(a.ads, len(add))[:len(a.ads)+len(add)]
	for k := len(a.ads) - 1; j >= 0; k-- {
		if i >= 0 && a.ads[i].Hash > add[j].Hash {
			a.ads[k] = a.ads[i]
			i--
		} else {
			a.ads[k] = add[j]
			j--
		}
	}
	clear(a.fresh)
}

func histBuckets(h *stats.IntHist) []kvInt {
	if h.Total() == 0 {
		return nil
	}
	var out []kvInt
	for v, n := range h.Series() { // Series is value-indexed: canonical order
		if n > 0 {
			out = append(out, kvInt{V: v, N: n})
		}
	}
	return out
}

// restore replaces the aggregate with a checkpoint's state, adopting its
// slices as they are. A state that fails validate is rejected and the
// aggregate is left unchanged.
func (a *Agg) restore(st aggState) error {
	if err := st.validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.done = st.Done
	a.visits = st.Visits
	a.pageErrors = st.PageErrors
	a.frames = st.Frames
	a.adFrames = st.AdFrames
	a.nonAd = st.NonAd
	a.sandboxed = st.Sandboxed
	a.degraded = st.Degraded
	a.errCauses = counterOf(st.ErrCauses)
	a.categories = counterOf(st.Categories)
	a.networks = counterOf(st.Networks)
	a.malNets = counterOf(st.MalNets)
	a.ads = st.UniqueAds
	a.fresh = make(map[string]int)
	a.escHashes = 0
	for _, ac := range st.UniqueAds {
		if !jsonPlain(ac.Hash) {
			a.escHashes++
		}
	}
	a.chain = st.Chain
	a.chainHist = histOf(st.ChainHist)
	a.dayAds = histOf(st.DayAds)
	a.graphScanned = st.GraphScanned
	a.graphFlagged = st.GraphFlagged
	a.graphXOrigin = st.GraphXOrigin
	a.graphEdges = st.GraphEdges
	a.graphChainHist = histOf(st.GraphChainHist)
	return nil
}

func counterOf(kvs []stats.KV) stats.Counter {
	var c stats.Counter
	for _, kv := range kvs {
		c.AddN(kv.Key, kv.Count)
	}
	return c
}

func histOf(bs []kvInt) stats.IntHist {
	var h stats.IntHist
	for _, b := range bs {
		h.AddN(b.V, b.N)
	}
	return h
}

// maxHistValue bounds the values a checkpoint's histograms may carry. Days
// and chain lengths are small, and IntHist's Series and Quantile cost
// O(largest value).
const maxHistValue = 1 << 16

// validate rejects a checkpoint whose parts disagree. The payload's hash
// only proves it was written whole; a hash-valid but inconsistent state
// must fail recovery loudly rather than restore silently. Validation and
// restore never expand a range, so a consistent [0, 1e12] costs nothing.
func (st *aggState) validate() error {
	need := int64(st.Visits)
	for i, r := range st.Done {
		switch {
		case r.Lo < 0 || r.Hi < r.Lo:
			return fmt.Errorf("stream: checkpoint done range [%d,%d] is negative or inverted", r.Lo, r.Hi)
		case i > 0 && r.Lo-1 <= st.Done[i-1].Hi:
			return fmt.Errorf("stream: checkpoint done range [%d,%d] is unsorted, overlapping or unmerged", r.Lo, r.Hi)
		case r.Hi-r.Lo >= need:
			return fmt.Errorf("stream: checkpoint done ranges cover more than its %d visits", st.Visits)
		}
		need -= r.Hi - r.Lo + 1
	}
	if need != 0 {
		return fmt.Errorf("stream: checkpoint done ranges cover %d visits, not %d", int64(st.Visits)-need, st.Visits)
	}
	left := st.AdFrames
	for i, ac := range st.UniqueAds {
		switch {
		case i > 0 && ac.Hash <= st.UniqueAds[i-1].Hash:
			return fmt.Errorf("stream: checkpoint unique_ads unsorted or duplicated at %q", ac.Hash)
		case ac.N < 1:
			return fmt.Errorf("stream: checkpoint ad %q has %d impressions", ac.Hash, ac.N)
		case ac.N > left:
			return fmt.Errorf("stream: checkpoint ad impressions exceed its %d ad frames", st.AdFrames)
		}
		left -= ac.N
	}
	if left != 0 {
		return fmt.Errorf("stream: checkpoint ad impressions sum to %d, not %d ad frames", st.AdFrames-left, st.AdFrames)
	}
	for _, bs := range [][]kvInt{st.ChainHist, st.DayAds, st.GraphChainHist} {
		for _, b := range bs {
			if b.V < 0 || b.V > maxHistValue {
				return fmt.Errorf("stream: checkpoint histogram value %d outside [0,%d]", b.V, maxHistValue)
			}
		}
	}
	return nil
}

// encodeAggState renders st exactly as json.Marshal(st) does — field order,
// omitempty and HTML escaping included, so checkpoint payloads and their
// content hashes are unchanged — by appending into one presized buffer
// instead of reflecting over tens of thousands of small structs.
func encodeAggState(st *aggState) []byte {
	b := make([]byte, 0, st.sizeHint())
	b = append(b, '{')
	if len(st.Done) > 0 {
		b = append(b, `"done":[`...)
		for i, r := range st.Done {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"lo":`...)
			b = strconv.AppendInt(b, r.Lo, 10)
			b = append(b, `,"hi":`...)
			b = strconv.AppendInt(b, r.Hi, 10)
			b = append(b, '}')
		}
		b = append(b, "],"...)
	}
	b = appendInt(b, `"visits":`, st.Visits)
	b = appendInt(b, `,"page_errors":`, st.PageErrors)
	b = appendInt(b, `,"frames":`, st.Frames)
	b = appendInt(b, `,"ad_frames":`, st.AdFrames)
	b = appendInt(b, `,"nonad":`, st.NonAd)
	b = appendInt(b, `,"sandboxed":`, st.Sandboxed)
	b = appendInt(b, `,"degraded":`, st.Degraded)
	b = appendKVs(b, `,"err_causes":[`, st.ErrCauses)
	b = appendKVs(b, `,"categories":[`, st.Categories)
	b = appendKVs(b, `,"networks":[`, st.Networks)
	b = appendKVs(b, `,"mal_nets":[`, st.MalNets)
	if len(st.UniqueAds) > 0 {
		quote := appendString
		if st.plainHashes {
			quote = appendPlain
		}
		b = append(b, `,"unique_ads":[`...)
		for i, ac := range st.UniqueAds {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"h":`...)
			b = quote(b, ac.Hash)
			b = appendInt(b, `,"n":`, ac.N)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	c := st.Chain
	b = append(b, `,"chain":{"n":`...)
	b = strconv.AppendInt(b, c.N, 10)
	b = append(b, `,"sum":`...)
	b = strconv.AppendInt(b, c.Sum, 10)
	b = append(b, `,"sumsq":`...)
	b = strconv.AppendInt(b, c.SumSq, 10)
	b = append(b, `,"min":`...)
	b = strconv.AppendInt(b, c.Min, 10)
	b = append(b, `,"max":`...)
	b = strconv.AppendInt(b, c.Max, 10)
	b = append(b, '}')
	b = appendBuckets(b, `,"chain_hist":[`, st.ChainHist)
	b = appendBuckets(b, `,"day_ads":[`, st.DayAds)
	b = appendNonZero(b, `,"graph_scanned":`, st.GraphScanned)
	b = appendNonZero(b, `,"graph_flagged":`, st.GraphFlagged)
	b = appendNonZero(b, `,"graph_xorigin":`, st.GraphXOrigin)
	b = appendNonZero(b, `,"graph_edges":`, st.GraphEdges)
	b = appendBuckets(b, `,"graph_chain_hist":[`, st.GraphChainHist)
	return append(b, '}')
}

// sizeHint is the encoded size of st, exact for the unique-ad table that
// dominates it and an upper bound for the small rest, so encodeAggState's
// buffer does not regrow.
func (st *aggState) sizeHint() int {
	n := 1024 + 56*len(st.Done) + 52*(len(st.ChainHist)+len(st.DayAds)+len(st.GraphChainHist))
	for _, kvs := range [][]stats.KV{st.ErrCauses, st.Categories, st.Networks, st.MalNets} {
		for _, kv := range kvs {
			n += 40 + len(kv.Key)
		}
	}
	for _, ac := range st.UniqueAds {
		n += 14 + len(ac.Hash) + decLen(ac.N)
	}
	return n
}

// decLen is the number of decimal digits of a non-negative n.
func decLen(n int) int {
	l := 1
	for ; n >= 10; n /= 10 {
		l++
	}
	return l
}

func appendInt(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

// appendNonZero is appendInt for an omitempty field.
func appendNonZero(b []byte, name string, v int) []byte {
	if v == 0 {
		return b
	}
	return appendInt(b, name, v)
}

// appendKVs appends a non-empty stats.KV list; name opens the array.
func appendKVs(b []byte, name string, kvs []stats.KV) []byte {
	if len(kvs) == 0 {
		return b
	}
	b = append(b, name...)
	for i, kv := range kvs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"Key":`...)
		b = appendString(b, kv.Key)
		b = appendInt(b, `,"Count":`, kv.Count)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendBuckets appends a non-empty histogram bucket list; name opens the
// array.
func appendBuckets(b []byte, name string, bs []kvInt) []byte {
	if len(bs) == 0 {
		return b
	}
	b = append(b, name...)
	for i, kv := range bs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, `{"v":`, kv.V)
		b = appendInt(b, `,"n":`, kv.N)
		b = append(b, '}')
	}
	return append(b, ']')
}

// plainJSON marks the bytes json.Marshal copies into a string unescaped:
// printable ASCII except the quote, the backslash and the HTML-escaped <, >
// and &.
var plainJSON = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// jsonPlain reports whether json.Marshal would copy s through unescaped.
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainJSON[s[i]] {
			return false
		}
	}
	return true
}

// appendPlain quotes a string already known to need no escaping.
func appendPlain(b []byte, s string) []byte {
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendString quotes s as json.Marshal does: plain strings are copied and
// anything else goes through encoding/json itself.
func appendString(b []byte, s string) []byte {
	if jsonPlain(s) {
		return appendPlain(b, s)
	}
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}
