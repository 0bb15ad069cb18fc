package route

import (
	"testing"

	"vm1place/internal/tech"
)

// BenchmarkRouteAll routes a 1200-instance ClosedM1 design whose initial
// routing overflows, so both passes run. Besides time it reports each
// pass's A* searches and queue pops, which depend only on the design and
// the config, never on the host: the router's work in numbers that compare
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
	b.ReportMetric(float64(r.work[0].searches), "init-searches/op")
	b.ReportMetric(float64(r.work[0].pops), "init-pops/op")
	b.ReportMetric(float64(r.work[1].searches), "ripup-searches/op")
	b.ReportMetric(float64(r.work[1].pops), "ripup-pops/op")
}
