package route

import (
	"testing"

	"vm1place/internal/tech"
)

// BenchmarkRouteAll routes a 1200-instance ClosedM1 design whose initial
// routing overflows, so both passes run. Besides time it reports each
// pass's A* searches, queue pops and pops per path node (the search work
// one node of a found path cost), which depend only on the design and the
// config, never on the host: the router's work in numbers that compare
// across machines.
func BenchmarkRouteAll(b *testing.B) {
	p := genPlaced(b, tech.ClosedM1, "bench", 1200, 1, 0.75)
	r := New(p, DefaultConfig(p.Tech, tech.ClosedM1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeAll(b, r)
	}
	b.StopTimer()
	if r.ripped == 0 {
		b.Fatal("no rip-up pass ran")
	}
	for pass, name := range []string{"init", "ripup"} {
		w := r.work[pass]
		b.ReportMetric(float64(w.searches), name+"-searches/op")
		b.ReportMetric(float64(w.pops), name+"-pops/op")
		b.ReportMetric(float64(w.pops)/float64(w.pathNodes), name+"-pops/pathnode")
	}
}
