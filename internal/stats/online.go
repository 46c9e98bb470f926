package stats

// IntMoments accumulates exact integer moments of a small-integer stream
// (chain lengths, frame counts). Every accumulator is integer arithmetic, so
// folds commute exactly: any interleaving — including a journal replay after
// a crash — produces bit-identical state, which is what the streaming
// service's byte-identical-summary invariant rests on. Fields are exported
// for stable JSON checkpointing. The zero value is ready to use.
type IntMoments struct {
	N     int64 `json:"n"`
	Sum   int64 `json:"sum"`
	SumSq int64 `json:"sumsq"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// Add folds one observation in.
func (m *IntMoments) Add(v int) { m.AddN(v, 1) }

// AddN folds n observations of value v in.
func (m *IntMoments) AddN(v int, n int) {
	if n <= 0 {
		return
	}
	x := int64(v)
	if m.N == 0 || x < m.Min {
		m.Min = x
	}
	if m.N == 0 || x > m.Max {
		m.Max = x
	}
	m.N += int64(n)
	m.Sum += x * int64(n)
	m.SumSq += x * x * int64(n)
}

// Merge folds another moment set in.
func (m *IntMoments) Merge(b IntMoments) {
	if b.N == 0 {
		return
	}
	if m.N == 0 {
		*m = b
		return
	}
	m.N += b.N
	m.Sum += b.Sum
	m.SumSq += b.SumSq
	if b.Min < m.Min {
		m.Min = b.Min
	}
	if b.Max > m.Max {
		m.Max = b.Max
	}
}

// Mean returns Sum/N. The division happens once at read time over exact
// integer accumulators, so it is identical no matter how the stream was
// folded.
func (m *IntMoments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return float64(m.Sum) / float64(m.N)
}

// Var returns the sample variance from the exact moments.
func (m *IntMoments) Var() float64 {
	if m.N < 2 {
		return 0
	}
	n := float64(m.N)
	mean := m.Mean()
	return (float64(m.SumSq) - n*mean*mean) / (n - 1)
}
