// Parallel batch routing.
//
// The engine partitions the (deterministically ordered) net list into
// batches by greedy first-fit coloring of each net's dilated search
// region: two nets share a batch only when their regions are disjoint.
// Every search a batch-mode net runs is clamped to its own region, so the
// edges it reads and writes all lie strictly inside that region — nets of
// one batch can therefore route concurrently against the live usage
// arrays without locks, and the outcome is identical to routing them in
// any sequential order. Route records are committed at the batch barrier
// in net order, and a net whose connection cannot complete inside its
// region is rolled back and deferred to a sequential cleanup phase with
// the classic widened-retry semantics.
//
// Batch composition, deferral decisions and the cleanup order depend only
// on the placement and configuration — never on the worker count or
// goroutine scheduling — so RouteAllCtx returns bit-identical Metrics for
// every Workers value. In particular the single-worker path below walks
// the same batch-concatenation order the barriers produce (it cannot use
// plain net order: first-fit coloring can seat a later net in an earlier
// batch than an earlier conflicting net), just without the goroutine and
// buffer machinery.
package route

import (
	"context"
	"sync"
	"sync/atomic"
)

// batchTile is the edge length (grid cells) of the coloring bitmap tiles.
// Region overlap is tested tile-conservatively: nets that share no tile
// certainly have disjoint regions.
const batchTile = 8

// colorProbeCap bounds how many existing batches a net probes before a
// fresh batch is opened, keeping coloring cheap on heavily overlapping
// designs. The cap is a constant, so batch composition stays deterministic.
const colorProbeCap = 128

// batchSchedule is the Router-owned coloring state: per-batch net lists
// and tile bitmaps, pooled across routeBatched calls. used counts the
// batches of the current build; entries beyond it are free capacity kept
// for reuse.
type batchSchedule struct {
	nets  [][]int
	bits  [][]uint64
	used  int
	words int
}

// buildSchedule greedily packs nets into conflict-free batches,
// preserving relative order within each batch. The schedule's storage is
// reused: rebuilding for a new net list allocates only when the batch
// count or bitmap size grows past anything seen before.
func (r *Router) buildSchedule(nets []int) {
	s := &r.sched
	tx := (r.nx + batchTile - 1) / batchTile
	ty := (r.ny + batchTile - 1) / batchTile
	words := (tx*ty + 63) / 64
	if words != s.words {
		s.bits = nil
		s.nets = nil
		s.words = words
	}
	s.used = 0
	for _, ni := range nets {
		rg := r.netRegion[ni]
		tx0, tx1 := rg.xlo/batchTile, rg.xhi/batchTile
		ty0, ty1 := rg.ylo/batchTile, rg.yhi/batchTile
		found := -1
		limit := s.used
		if limit > colorProbeCap {
			limit = colorProbeCap
		}
	probe:
		for bi := 0; bi < limit; bi++ {
			bits := s.bits[bi]
			for tyi := ty0; tyi <= ty1; tyi++ {
				base := tyi * tx
				for txi := tx0; txi <= tx1; txi++ {
					t := base + txi
					if bits[t>>6]&(1<<(t&63)) != 0 {
						continue probe
					}
				}
			}
			found = bi
			break
		}
		if found < 0 {
			if s.used < len(s.nets) {
				s.nets[s.used] = s.nets[s.used][:0]
				clearWords(s.bits[s.used])
			} else {
				s.nets = append(s.nets, nil)
				s.bits = append(s.bits, make([]uint64, words))
			}
			found = s.used
			s.used++
		}
		s.nets[found] = append(s.nets[found], ni)
		bits := s.bits[found]
		for tyi := ty0; tyi <= ty1; tyi++ {
			base := tyi * tx
			for txi := tx0; txi <= tx1; txi++ {
				t := base + txi
				bits[t>>6] |= 1 << (t & 63)
			}
		}
	}
}

func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

// routeBatched routes the given nets (already in deterministic order)
// through the batch schedule with congestion weight cw. Cancellation is
// checked between batches and between cleanup nets — the points where all
// in-flight work has been committed — so an early return leaves every
// committed net fully routed and the usage arrays consistent.
func (r *Router) routeBatched(ctx context.Context, nets []int, cw float64) error {
	if len(nets) == 0 {
		return nil
	}
	r.rebuildEdgeCosts(cw)
	workers := r.workerCount()
	r.ensureSearchers(workers)
	r.buildSchedule(nets)

	deferred := r.deferBuf[:0]
	var err error
	if workers <= 1 {
		deferred, err = r.runScheduleSeq(ctx, deferred)
	} else {
		deferred, err = r.runSchedulePar(ctx, workers, deferred)
	}
	r.deferBuf = deferred[:0]
	if err != nil {
		return err
	}

	// Sequential cleanup: nets that could not finish inside their region
	// get the unbounded retry semantics, in deterministic order.
	full := region{xlo: 0, ylo: 0, xhi: r.nx - 1, yhi: r.ny - 1}
	s := r.searchers[0]
	for _, ni := range deferred {
		if err := ctx.Err(); err != nil {
			return err
		}
		nr, _ := s.routeNet(ni, full, false)
		r.routes[ni] = nr
	}
	return nil
}

// runScheduleSeq is the single-worker fast path: it walks the schedule in
// batch-concatenation order — the same order the parallel barriers commit
// in — routing and committing each net immediately. Within a batch the
// regions are disjoint, so in-place sequential execution is equivalent to
// the concurrent run; across batches the commit order is the
// concatenation order either way. No goroutines, no cursor, no per-batch
// result buffers.
func (r *Router) runScheduleSeq(ctx context.Context, deferred []int) ([]int, error) {
	s := r.searchers[0]
	for bi := 0; bi < r.sched.used; bi++ {
		if err := ctx.Err(); err != nil {
			return deferred, err
		}
		for _, ni := range r.sched.nets[bi] {
			nr, def := s.routeNet(ni, r.netRegion[ni], true)
			if def {
				deferred = append(deferred, ni)
			} else {
				r.routes[ni] = nr
			}
		}
	}
	return deferred, nil
}

// runSchedulePar drains each batch with a worker pool and commits at the
// batch barrier in net order. Result buffers are pooled on the Router.
func (r *Router) runSchedulePar(ctx context.Context, workers int, deferred []int) ([]int, error) {
	for bi := 0; bi < r.sched.used; bi++ {
		if err := ctx.Err(); err != nil {
			return deferred, err
		}
		batch := r.sched.nets[bi]
		w := workers
		if w > len(batch) {
			w = len(batch)
		}
		if w <= 1 {
			// One-net batch: skip the pool.
			s := r.searchers[0]
			for _, ni := range batch {
				nr, def := s.routeNet(ni, r.netRegion[ni], true)
				if def {
					deferred = append(deferred, ni)
				} else {
					r.routes[ni] = nr
				}
			}
			continue
		}

		if cap(r.nrsBuf) < len(batch) {
			r.nrsBuf = make([]*netRoute, len(batch))
			r.defsBuf = make([]bool, len(batch))
		}
		nrs := r.nrsBuf[:len(batch)]
		defs := r.defsBuf[:len(batch)]
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func(s *searcher) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(batch) {
						return
					}
					ni := batch[i]
					nrs[i], defs[i] = s.routeNet(ni, r.netRegion[ni], true)
				}
			}(r.searchers[k])
		}
		wg.Wait()

		// Barrier commit, in net order.
		for i, ni := range batch {
			if defs[i] {
				deferred = append(deferred, ni)
			} else {
				r.routes[ni] = nrs[i]
			}
		}
	}
	return deferred, nil
}
