package main

import (
	"runtime"
	"time"

	"vm1place/internal/lp"
)

// counters are the process-wide work counters sampled at span boundaries.
type counters struct {
	LP         lp.Stats `json:"lp"`
	Mallocs    uint64   `json:"mallocs"`
	AllocBytes uint64   `json:"alloc_bytes"`
	GCCycles   uint32   `json:"gc_cycles"`
	GCPauseNs  uint64   `json:"gc_pause_ns"`
}

func sample() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{LP: lp.GlobalStats(), Mallocs: ms.Mallocs, AllocBytes: ms.TotalAlloc,
		GCCycles: ms.NumGC, GCPauseNs: ms.PauseTotalNs}
}

func (c counters) sub(b counters) counters {
	return counters{LP: lpDelta(b.LP, c.LP), Mallocs: c.Mallocs - b.Mallocs, AllocBytes: c.AllocBytes - b.AllocBytes,
		GCCycles: c.GCCycles - b.GCCycles, GCPauseNs: c.GCPauseNs - b.GCPauseNs}
}

// span is one traced interval: a whole flow (name "flow", no parent) or one
// of its stages, with the counter deltas across it. Times are nanoseconds
// since the run started.
type span struct {
	Workload string   `json:"workload"`
	Op       int      `json:"op"`
	Design   int      `json:"design"`
	Name     string   `json:"name"`
	Parent   string   `json:"parent,omitempty"`
	StartNs  int64    `json:"start_ns"`
	EndNs    int64    `json:"end_ns"`
	Delta    counters `json:"delta"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer is the flow.Observer of traced flows. It keeps every span in
// memory; the run writes them out when it ends.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span

	op, design int
	rootIdx    int
	rootC      counters
	cur        span
	curC       counters
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens the root span of one flow.
func (t *tracer) begin(op, design int) {
	t.op, t.design = op, design
	t.rootIdx = len(t.spans)
	t.spans = append(t.spans, span{Workload: t.workload, Op: op, Design: design, Name: "flow", StartNs: t.now()})
	t.rootC = sample()
}

// end closes the root span and returns the flow's spans, root first.
func (t *tracer) end() []span {
	root := &t.spans[t.rootIdx]
	root.Delta = sample().sub(t.rootC)
	root.EndNs = t.now()
	return t.spans[t.rootIdx:]
}

// StageStart implements flow.Observer.
func (t *tracer) StageStart(name string) {
	t.cur = span{Workload: t.workload, Op: t.op, Design: t.design, Name: name, Parent: "flow", StartNs: t.now()}
	t.curC = sample()
}

// StageDone implements flow.Observer.
func (t *tracer) StageDone(string, time.Duration, error) {
	t.cur.Delta = sample().sub(t.curC)
	t.cur.EndNs = t.now()
	t.spans = append(t.spans, t.cur)
}
