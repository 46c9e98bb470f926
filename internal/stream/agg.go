package stream

import (
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"sync"

	"madave/internal/corpus"
	"madave/internal/crawler"
	"madave/internal/oracle"
	"madave/internal/stats"
	"madave/internal/urlx"
)

// AdRecord is the journaled form of one harvested, classified ad.
type AdRecord struct {
	Hash      string `json:"h"`
	Category  string `json:"c"`
	Network   string `json:"n,omitempty"`
	ChainLen  int    `json:"l"`
	Day       int    `json:"d"`
	Sandboxed bool   `json:"s,omitempty"`
	// Graph carries the flow-graph oracle's slice of the verdict; absent
	// when the graph oracle is off, so graph-off journals are byte-identical
	// to pre-graph ones.
	Graph *AdGraphRecord `json:"g,omitempty"`
}

// AdGraphRecord is the journaled flow-graph verdict of one classified ad —
// the integer projection of flowgraph.Summary that folds exactly across the
// streaming commit path.
type AdGraphRecord struct {
	Flagged bool `json:"f,omitempty"`
	// Chain is the graph-measured arbitration-chain depth (redirect hops).
	Chain int `json:"c,omitempty"`
	// XOrigin / Edges are the cross-origin and total edge counts.
	XOrigin int `json:"x,omitempty"`
	Edges   int `json:"e,omitempty"`
}

// NewAdRecord builds the journal form of one classified ad.
func NewAdRecord(ha crawler.HarvestedAd, inc oracle.Incident) AdRecord {
	rec := AdRecord{
		Hash:      ha.Ad.Hash,
		Category:  string(inc.Category),
		Network:   servingNetwork(ha.Ad),
		ChainLen:  len(ha.Ad.Chain),
		Day:       ha.Ad.Day,
		Sandboxed: ha.Sandboxed,
	}
	if inc.Report != nil && inc.Report.Graph != nil {
		g := inc.Report.Graph
		rec.Graph = &AdGraphRecord{
			Flagged: g.Verdict.Malicious,
			Chain:   g.Features.ChainDepth,
			XOrigin: g.Features.CrossOriginEdges,
			Edges:   g.Features.Edges,
		}
	}
	return rec
}

// servingNetwork mirrors the analysis package's attribution: the last
// arbitration hop served the ad; a chainless ad is attributed to its final
// URL's host.
func servingNetwork(ad *corpus.Ad) string {
	if len(ad.Chain) == 0 {
		return urlx.Host(ad.FinalURL)
	}
	return ad.Chain[len(ad.Chain)-1]
}

// VisitRecord is one journal entry: the complete, classified observation of
// one visit. Records fold commutatively into the Agg, so any interleaving —
// including a replay after a crash — reproduces the same aggregate state.
type VisitRecord struct {
	Seq      int64      `json:"seq"`
	Key      string     `json:"key"`
	ErrCause string     `json:"err,omitempty"`
	Frames   int        `json:"frames"`
	NonAd    int        `json:"nonad"`
	Degraded bool       `json:"degraded,omitempty"`
	Ads      []AdRecord `json:"ads,omitempty"`

	// Aborted marks an outcome cut off mid-flight (drain deadline, panic,
	// wedge). Aborted records keep the pipeline's item accounting complete
	// but are never journaled: the visit stays pending and is re-executed —
	// hermetically, hence identically — on the next run.
	Aborted    bool   `json:"-"`
	AbortCause string `json:"-"`
}

// RecordKind is the journal kind tag of VisitRecord entries;
// CheckpointKind tags compacted aggregate state.
const (
	RecordKind     = "visit"
	CheckpointKind = "checkpoint"
)

// Agg is the streaming aggregate: every study statistic the service reports,
// folded record by record with commutative, integer-exact operations, plus
// the done-set that recovery consults. Its state is O(gaps + distinct ad
// hashes): the done-set is a list of merged seq ranges (one range for a
// healthy stream), so memory and checkpoint cost do not grow with visits.
type Agg struct {
	mu sync.Mutex
	// done holds the folded seqs as sorted, disjoint, non-adjacent ranges —
	// the checkpoint form itself. Their total width is always visits.
	done []seqRange

	visits, pageErrors, frames, adFrames, nonAd int
	sandboxed, degraded                         int

	errCauses  stats.Counter
	categories stats.Counter
	networks   stats.Counter
	malNets    stats.Counter // serving network → non-clean ad count

	// Unique ads live in two tiers so a checkpoint never re-sorts them all:
	// ads holds every hash seen up to the last checkpoint, sorted, with its
	// impression count; fresh holds hashes first seen since then. The
	// checkpoint sorts fresh alone and merges it into ads.
	ads   []adCount
	fresh map[string]int
	// escHashes counts distinct hashes that JSON must escape; while it is
	// zero the checkpoint encoder copies hashes without scanning them.
	escHashes int

	chain     stats.IntMoments
	chainHist stats.IntHist
	dayAds    stats.IntHist

	// Flow-graph accumulators, folded from AdRecord.Graph. They live beside
	// (never inside) the StreamSummary fields: the canonical summary JSON is
	// byte-identical with the graph oracle on or off.
	graphScanned   int
	graphFlagged   int
	graphXOrigin   int
	graphEdges     int
	graphChainHist stats.IntHist
}

// NewAgg returns an empty aggregate.
func NewAgg() *Agg {
	return &Agg{fresh: make(map[string]int)}
}

// Fold merges one record in. It returns false (and changes nothing) when the
// record's sequence number was already folded — replaying a journal that
// holds both a checkpoint and its tail is idempotent.
func (a *Agg) Fold(r VisitRecord) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.markDone(r.Seq) {
		return false
	}
	a.visits++
	if r.ErrCause != "" {
		a.pageErrors++
		a.errCauses.Add(r.ErrCause)
	}
	if r.Degraded {
		a.degraded++
	}
	a.frames += r.Frames
	a.nonAd += r.NonAd
	a.adFrames += len(r.Ads)
	for _, ad := range r.Ads {
		if ad.Sandboxed {
			a.sandboxed++
		}
		a.countAd(ad.Hash)
		a.categories.Add(ad.Category)
		if ad.Network != "" {
			a.networks.Add(ad.Network)
			if ad.Category != string(oracle.CatClean) {
				a.malNets.Add(ad.Network)
			}
		}
		a.chain.Add(ad.ChainLen)
		a.chainHist.Add(ad.ChainLen)
		a.dayAds.Add(ad.Day)
		if g := ad.Graph; g != nil {
			a.graphScanned++
			if g.Flagged {
				a.graphFlagged++
			}
			a.graphXOrigin += g.XOrigin
			a.graphEdges += g.Edges
			a.graphChainHist.Add(g.Chain)
		}
	}
	return true
}

// doneIndex returns the index of the first done range starting above seq.
func (a *Agg) doneIndex(seq int64) int {
	return sort.Search(len(a.done), func(i int) bool { return a.done[i].Lo > seq })
}

// markDone adds seq to the done-set, merging it into its neighbouring
// ranges; it reports false when seq was already there.
func (a *Agg) markDone(seq int64) bool {
	i := a.doneIndex(seq)
	if i > 0 && a.done[i-1].Hi >= seq {
		return false
	}
	// done[i-1].Hi < seq < done[i].Lo, so neither ±1 below can overflow.
	left := i > 0 && a.done[i-1].Hi+1 == seq
	right := i < len(a.done) && a.done[i].Lo-1 == seq
	switch {
	case left && right:
		a.done[i-1].Hi = a.done[i].Hi
		a.done = slices.Delete(a.done, i, i+1)
	case left:
		a.done[i-1].Hi = seq
	case right:
		a.done[i].Lo = seq
	default:
		a.done = slices.Insert(a.done, i, seqRange{Lo: seq, Hi: seq})
	}
	return true
}

// countAd records one impression of hash h.
func (a *Agg) countAd(h string) {
	if i, ok := searchAds(a.ads, h); ok {
		a.ads[i].N++
		return
	}
	n := a.fresh[h]
	if n == 0 && !jsonPlain(h) {
		a.escHashes++
	}
	a.fresh[h] = n + 1
}

// searchAds binary-searches the sorted ad table for h.
func searchAds(ads []adCount, h string) (int, bool) {
	return slices.BinarySearchFunc(ads, h, func(ac adCount, h string) int { return strings.Compare(ac.Hash, h) })
}

// MalNetworks returns the running per-network malvertising table: for each
// serving ad network, how many non-clean ads it has served so far, sorted by
// count. This is the live view /statusz renders; it never enters the
// canonical StreamSummary artifact.
func (a *Agg) MalNetworks() []stats.KV {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.malNets.Sorted()
}

// Done reports whether seq has been folded.
func (a *Agg) Done(seq int64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := a.doneIndex(seq)
	return i > 0 && a.done[i-1].Hi >= seq
}

// DoneCount returns how many visits have been folded.
func (a *Agg) DoneCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.visits
}

// StreamSummary is the deterministic study summary: every field derives from
// integer accumulators or sorted views, so its JSON is byte-identical for a
// given set of folded records regardless of fold order, worker scheduling,
// or how many times the process died along the way. Operational counters
// (restarts, sheds, queue depths) live in Ops, never here.
type StreamSummary struct {
	Visits         int        `json:"visits"`
	PageErrors     int        `json:"page_errors"`
	ErrCauses      []stats.KV `json:"err_causes,omitempty"`
	Frames         int        `json:"frames"`
	AdFrames       int        `json:"ad_frames"`
	NonAdFrames    int        `json:"nonad_frames"`
	SandboxedAds   int        `json:"sandboxed_ads"`
	DegradedPages  int        `json:"degraded_pages"`
	UniqueAds      int        `json:"unique_ads"`
	DupImpressions int        `json:"dup_impressions"`
	Categories     []stats.KV `json:"categories,omitempty"`
	Malicious      int        `json:"malicious"`
	Networks       []stats.KV `json:"networks,omitempty"`
	ChainMean      float64    `json:"chain_mean"`
	ChainP50       int        `json:"chain_p50"`
	ChainP90       int        `json:"chain_p90"`
	ChainMax       int        `json:"chain_max"`
	AdsPerDay      []int      `json:"ads_per_day,omitempty"`
}

// JSON renders the summary in its canonical byte form — the artifact the
// kill-recover soak compares across runs.
func (s StreamSummary) JSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic("stream: summary marshal: " + err.Error()) // fixed struct, cannot fail
	}
	return b
}

// Summary materializes the deterministic summary of everything folded so
// far.
func (a *Agg) Summary() StreamSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := StreamSummary{
		Visits:        a.visits,
		PageErrors:    a.pageErrors,
		ErrCauses:     a.errCauses.Sorted(),
		Frames:        a.frames,
		AdFrames:      a.adFrames,
		NonAdFrames:   a.nonAd,
		SandboxedAds:  a.sandboxed,
		DegradedPages: a.degraded,
		UniqueAds:     len(a.ads) + len(a.fresh),
		Categories:    a.categories.Sorted(),
		Networks:      a.networks.Sorted(),
		ChainMean:     a.chain.Mean(),
		ChainP50:      a.chainHist.Quantile(0.5),
		ChainP90:      a.chainHist.Quantile(0.9),
		ChainMax:      a.chainHist.Max(),
	}
	// Every ad frame is one impression of one unique hash.
	s.DupImpressions = a.adFrames - s.UniqueAds
	for _, kv := range s.Categories {
		if kv.Key != string(oracle.CatClean) {
			s.Malicious += kv.Count
		}
	}
	if a.dayAds.Total() > 0 {
		s.AdsPerDay = a.dayAds.Series()
	}
	return s
}

// GraphSummary is the flow-graph oracle's deterministic streaming aggregate.
// It is a separate artifact from StreamSummary — its JSON stands beside the
// canonical summary, never inside it — so enabling the graph oracle leaves
// StreamSummary.JSON byte-identical.
type GraphSummary struct {
	Scanned          int `json:"scanned"`
	Flagged          int `json:"flagged"`
	ChainMax         int `json:"chain_max"`
	ChainP90         int `json:"chain_p90"`
	CrossOriginEdges int `json:"cross_origin_edges"`
	Edges            int `json:"edges"`
}

// JSON renders the graph summary in canonical byte form.
func (s GraphSummary) JSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic("stream: graph summary marshal: " + err.Error()) // fixed struct, cannot fail
	}
	return b
}

// GraphSummary materializes the flow-graph aggregate folded so far; Scanned
// is 0 when the graph oracle never ran.
func (a *Agg) GraphSummary() GraphSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	return GraphSummary{
		Scanned:          a.graphScanned,
		Flagged:          a.graphFlagged,
		ChainMax:         a.graphChainHist.Max(),
		ChainP90:         a.graphChainHist.Quantile(0.9),
		CrossOriginEdges: a.graphXOrigin,
		Edges:            a.graphEdges,
	}
}
