package stats

import (
	"math"
	"testing"
)

func TestIntMomentsFoldOrderIrrelevant(t *testing.T) {
	vals := []int{2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9}
	var fwd, rev, merged IntMoments
	for _, v := range vals {
		fwd.Add(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		rev.Add(vals[i])
	}
	var a, b IntMoments
	for i, v := range vals {
		if i < len(vals)/2 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	merged = a
	merged.Merge(b)
	if fwd != rev || fwd != merged {
		t.Fatalf("fold order changed exact moments: fwd=%+v rev=%+v merged=%+v", fwd, rev, merged)
	}
	if fwd.N != 13 || fwd.Min != 1 || fwd.Max != 9 {
		t.Fatalf("moments = %+v", fwd)
	}
	if math.Abs(fwd.Mean()-65.0/13.0) > 1e-12 {
		t.Fatalf("mean = %v", fwd.Mean())
	}
}

func TestIntMomentsAddN(t *testing.T) {
	var a, b IntMoments
	for i := 0; i < 5; i++ {
		a.Add(3)
	}
	b.AddN(3, 5)
	if a != b {
		t.Fatalf("AddN(3,5) = %+v, want %+v", b, a)
	}
}

func TestCounterMerge(t *testing.T) {
	var a, b Counter
	a.Add("x")
	a.AddN("y", 2)
	b.AddN("y", 3)
	b.Add("z")
	a.Merge(&b)
	if a.Get("x") != 1 || a.Get("y") != 5 || a.Get("z") != 1 || a.Total() != 7 {
		t.Fatalf("merged counter = %v (total %d)", a.Sorted(), a.Total())
	}
}

func TestIntHistMergeAndAddN(t *testing.T) {
	var a, b IntHist
	a.AddN(1, 3)
	a.Add(4)
	b.AddN(4, 2)
	b.Add(7)
	a.Merge(&b)
	if a.Total() != 7 || a.Get(1) != 3 || a.Get(4) != 3 || a.Get(7) != 1 || a.Max() != 7 {
		t.Fatalf("merged hist series = %v", a.Series())
	}
}
