package analysis

import (
	"fmt"
	"sort"
	"strings"

	"madave/internal/corpus"
	"madave/internal/oracle"
)

// GraphStats is the flow-graph oracle's section of the study report: which
// structural signals fired and where, aggregated per serving network (the
// arbitration chain's final host, same attribution as Figures 1/2). It is
// strictly additive — Analyze fills it only when the classified result
// carries graph verdicts, and no base table reads from it, so graph-on and
// graph-off reports render byte-identically everywhere else.
type GraphStats struct {
	// Scanned is the number of ads that carried a flow-graph summary;
	// Flagged how many the graph classifier called malicious.
	Scanned int
	Flagged int
	// Signals counts how often each structural signal fired.
	Signals []GraphSignalRow
	// Networks lists the networks with at least one graph-flagged ad,
	// sorted by descending flagged count (then name).
	Networks []GraphNetworkRow
}

// GraphSignalRow is one structural signal's tally.
type GraphSignalRow struct {
	Signal string
	Count  int
}

// GraphNetworkRow is one serving network's flow-graph view — the
// arbitration-chain table the README quick-start prints.
type GraphNetworkRow struct {
	Network string
	// Ads is the network's total ad volume; Flagged its graph verdicts.
	Ads     int
	Flagged int
	// MaxChain / MeanChain summarize the graph-measured arbitration-chain
	// depth (redirect hops) over the network's flagged ads.
	MaxChain  int
	MeanChain float64
}

// AnalyzeGraph computes the flow-graph section; nil when the result carries
// no graph verdicts (the graph oracle was off).
func AnalyzeGraph(corp *corpus.Corpus, res *oracle.Result) *GraphStats {
	if res == nil || res.GraphScanned == 0 {
		return nil
	}
	gs := &GraphStats{Scanned: res.GraphScanned, Flagged: len(res.GraphFindings)}

	byHash := make(map[string]*oracle.GraphFinding, len(res.GraphFindings))
	signals := map[string]int{}
	for i := range res.GraphFindings {
		gf := &res.GraphFindings[i]
		byHash[gf.AdHash] = gf
		for _, s := range gf.Signals {
			signals[s]++
		}
	}
	for s, n := range signals {
		gs.Signals = append(gs.Signals, GraphSignalRow{Signal: s, Count: n})
	}
	sort.Slice(gs.Signals, func(i, j int) bool {
		if gs.Signals[i].Count != gs.Signals[j].Count {
			return gs.Signals[i].Count > gs.Signals[j].Count
		}
		return gs.Signals[i].Signal < gs.Signals[j].Signal
	})

	type agg struct {
		ads, flagged, chainSum, chainMax int
	}
	nets := map[string]*agg{}
	for _, ad := range corp.All() {
		net := ad.ServingNetwork()
		a := nets[net]
		if a == nil {
			a = &agg{}
			nets[net] = a
		}
		a.ads++
		gf, ok := byHash[ad.Hash]
		if !ok {
			continue
		}
		a.flagged++
		a.chainSum += gf.Features.ChainDepth
		if gf.Features.ChainDepth > a.chainMax {
			a.chainMax = gf.Features.ChainDepth
		}
	}
	for name, a := range nets {
		if a.flagged == 0 {
			continue
		}
		gs.Networks = append(gs.Networks, GraphNetworkRow{
			Network:   name,
			Ads:       a.ads,
			Flagged:   a.flagged,
			MaxChain:  a.chainMax,
			MeanChain: float64(a.chainSum) / float64(a.flagged),
		})
	}
	sort.Slice(gs.Networks, func(i, j int) bool {
		if gs.Networks[i].Flagged != gs.Networks[j].Flagged {
			return gs.Networks[i].Flagged > gs.Networks[j].Flagged
		}
		return gs.Networks[i].Network < gs.Networks[j].Network
	})
	return gs
}

// RenderText renders the flow-graph section in the fixed-width style of
// Report.RenderText. Callers print it after the base report; keeping it out
// of RenderText preserves byte-identity of the base rendering with the
// graph oracle on or off.
func (g *GraphStats) RenderText() string {
	if g == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Flow-graph oracle: %d of %d ads flagged\n", g.Flagged, g.Scanned)
	b.WriteString("  signals:\n")
	for _, row := range g.Signals {
		fmt.Fprintf(&b, "    %-22s %6d\n", row.Signal, row.Count)
	}
	b.WriteString("  per-network arbitration chains (graph-measured):\n")
	for i, row := range g.Networks {
		if i >= 15 {
			fmt.Fprintf(&b, "    ... %d more networks\n", len(g.Networks)-i)
			break
		}
		fmt.Fprintf(&b, "    %-34s %5d ads  %4d flagged  chain max %2d mean %.2f\n",
			row.Network, row.Ads, row.Flagged, row.MaxChain, row.MeanChain)
	}
	return b.String()
}
