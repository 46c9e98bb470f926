package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestNewRNGFromStringStable(t *testing.T) {
	a := NewRNGFromString("ads.example.com")
	b := NewRNGFromString("ads.example.com")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same string seed produced different streams")
	}
	c := NewRNGFromString("ads.example.org")
	d := NewRNGFromString("ads.example.com")
	if c.Uint64() == d.Uint64() {
		t.Fatal("different string seeds produced identical first draw")
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(7)
	f1 := r.Fork("alpha")
	f2 := r.Fork("beta")
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forks with different labels produced identical first draw")
	}
	// Forking must not advance the parent stream.
	r2 := NewRNG(7)
	if r.Uint64() != r2.Uint64() {
		t.Fatal("Fork advanced the parent stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(11)
	if err := quick.Check(func(_ uint64) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %f, want ~0.5", mean)
	}
}

func TestBoolExtremes(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %f", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	if err := quick.Check(func(raw uint8) bool {
		n := int(raw%50) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandWordLength(t *testing.T) {
	r := NewRNG(31)
	for i := 0; i < 1000; i++ {
		w := r.RandWord(3, 9)
		if len(w) < 3 || len(w) > 9 {
			t.Fatalf("RandWord(3,9) length %d", len(w))
		}
		for _, c := range w {
			if c < 'a' || c > 'z' {
				t.Fatalf("RandWord produced non-letter %q", c)
			}
		}
	}
}

func TestRandHex(t *testing.T) {
	r := NewRNG(37)
	h := r.RandHex(32)
	if len(h) != 32 {
		t.Fatalf("RandHex(32) length %d", len(h))
	}
	for _, c := range h {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("RandHex produced %q", c)
		}
	}
}

func TestPick(t *testing.T) {
	r := NewRNG(53)
	s := []string{"x", "y", "z"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(r, s)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick over 100 draws covered %d/3 values", len(seen))
	}
}
