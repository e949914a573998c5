package diversity

import "testing"

// benchHist builds a histogram shaped like a mid-solve selection: ~40 HT
// classes with skewed counts.
func benchHist() *Histogram {
	h := NewHistogram(43)
	for c := 0; c < 40; c++ {
		h.AddN(c, 1+c%5)
	}
	return h
}

func BenchmarkHistogramAddRemove(b *testing.B) {
	h := benchHist()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := i % 40
		h.Add(tx)
		h.Remove(tx)
	}
}

func BenchmarkHistogramSlack(b *testing.B) {
	h := benchHist()
	req := Requirement{C: 0.6, L: 41}
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s = h.Slack(req)
	}
	_ = s
}

func BenchmarkHistogramSlackIfAdded(b *testing.B) {
	h := benchHist()
	req := Requirement{C: 0.6, L: 41}
	delta := []int{1, 3, 3, 7, 41, 42}
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s = h.SlackIfAdded(req, delta)
	}
	_ = s
}

func BenchmarkHistogramSlackWithout(b *testing.B) {
	h := benchHist()
	req := Requirement{C: 0.6, L: 5}
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s = h.SlackWithout(req, i%40)
	}
	_ = s
}
