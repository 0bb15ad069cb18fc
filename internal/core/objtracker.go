package core

import (
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
)

// Move is one accepted placement change: instance Inst moves to site/row
// with orientation Flip. DistOpt emits one Move per cell a window MILP
// relocated; ObjTracker.ApplyMoves consumes them.
type Move struct {
	Inst int
	Site int
	Row  int
	Flip bool
}

// ObjTracker maintains the global objective of a placement incrementally.
// A full DistOpt pass moves only the cells inside changed windows, yet the
// seed implementation re-scanned every net afterwards — O(nets·terms²) per
// pass. The tracker caches per-net HPWL, alignment and overlap statistics
// plus an inst→nets index, so ApplyMoves re-evaluates only the nets
// incident to moved cells. CalculateObj remains the oracle; the tracker's
// Objective is bit-identical to it (the weighted-HPWL sum is re-added in
// net order every batch, so even float accumulation order matches).
//
// The tracker owns all placement mutation while in use: apply moves only
// through ApplyMoves so the caches never go stale. It is not safe for
// concurrent use.
type ObjTracker struct {
	p   *layout.Placement
	prm Params

	netHPWL   []int64   // per-net HPWL, zero for clock nets (as TotalHPWL)
	netWght   []float64 // per-net βn·HPWL, zero for clock nets
	netAlign  []int     // per-net dM1-eligible pair count (non-clock)
	netOver   []int64   // per-net overlap surplus (OpenM1, non-clock)
	netReward []float64 // per-net PairAlpha·align (non-clock)
	instNets  [][]int   // inst -> distinct incident net indices

	// epoch-marked dedup of nets touched by one ApplyMoves batch.
	mark    []int
	epoch   int
	touched []int

	termBuf []pinRef // reused terminal scratch (no per-net allocation)

	// est, when attached, observes every committed move batch so the QoR
	// proxy's congestion model tracks the placement. instBuf is the
	// pooled moved-instance list handed to it.
	est     WindowScorer
	instBuf []int

	align int
	over  int64
}

// AttachEstimator registers a QoR estimator to be notified after every
// ApplyMoves batch. The estimator must already reflect the current
// placement (build it before moving anything). Passing nil detaches.
func (t *ObjTracker) AttachEstimator(est WindowScorer) { t.est = est }

// NewObjTracker fully evaluates the placement and builds the incremental
// caches. Cost is one CalculateObj-equivalent scan plus the inst→nets
// index.
func NewObjTracker(p *layout.Placement, prm Params) *ObjTracker {
	nNets := len(p.Design.Nets)
	nInsts := len(p.Design.Insts)
	t := &ObjTracker{
		p:         p,
		prm:       prm,
		netHPWL:   make([]int64, nNets),
		netWght:   make([]float64, nNets),
		netAlign:  make([]int, nNets),
		netOver:   make([]int64, nNets),
		netReward: make([]float64, nNets),
		instNets:  make([][]int, nInsts),
		mark:      make([]int, nNets),
	}

	// inst→nets index over non-clock nets (clock nets never contribute to
	// the objective), deduplicating nets that touch an instance through
	// several pins.
	counts := make([]int, nInsts)
	for ni := range p.Design.Nets {
		if p.Design.Nets[ni].IsClock {
			continue
		}
		p.Design.Nets[ni].ForEachConn(func(c netlist.Conn) {
			counts[c.Inst]++
		})
	}
	backing := make([]int, 0, sumInts(counts))
	for i, c := range counts {
		t.instNets[i] = backing[len(backing) : len(backing) : len(backing)+c]
		backing = backing[:len(backing)+c]
	}
	last := make([]int, nInsts)
	for i := range last {
		last[i] = -1
	}
	for ni := range p.Design.Nets {
		if p.Design.Nets[ni].IsClock {
			continue
		}
		p.Design.Nets[ni].ForEachConn(func(c netlist.Conn) {
			if last[c.Inst] != ni {
				last[c.Inst] = ni
				t.instNets[c.Inst] = append(t.instNets[c.Inst], ni)
			}
		})
	}

	for ni := range p.Design.Nets {
		t.refreshNet(ni)
		t.align += t.netAlign[ni]
		t.over += t.netOver[ni]
	}
	return t
}

// refreshNet recomputes the cached statistics of one net from the current
// placement.
func (t *ObjTracker) refreshNet(ni int) {
	p, prm := t.p, t.prm
	if p.Design.Nets[ni].IsClock {
		return // never contributes; caches stay zero
	}
	t.netHPWL[ni] = p.NetHPWL(ni)
	t.netWght[ni] = prm.betaOf(ni) * float64(t.netHPWL[ni])
	terms := appendNetTerminals(t.termBuf[:0], p, ni)
	t.termBuf = terms
	align, over := pairStats(prm, terms)
	t.netAlign[ni] = align
	t.netOver[ni] = over
	t.netReward[ni] = prm.obj().PairAlpha(prm.weights(), ni) * float64(align)
}

// ApplyMoves applies a batch of accepted moves to the placement and
// returns the updated global objective, re-evaluating only the nets
// incident to the moved instances.
func (t *ObjTracker) ApplyMoves(moves []Move) Objective {
	t.commit(moves)
	return t.Objective()
}

// commit is ApplyMoves without assembling the objective, an O(nets)
// reduction: DistOpt commits every window as its own batch and reads the
// objective once per pass. The per-net caches are recomputed from
// positions and align/over are integer sums, so any split of a pass's
// moves into batches ends in the same tracker state.
func (t *ObjTracker) commit(moves []Move) {
	t.epoch++
	t.touched = t.touched[:0]
	for _, mv := range moves {
		t.p.SetLoc(mv.Inst, mv.Site, mv.Row, mv.Flip)
		for _, ni := range t.instNets[mv.Inst] {
			if t.mark[ni] != t.epoch {
				t.mark[ni] = t.epoch
				t.touched = append(t.touched, ni)
			}
		}
	}
	for _, ni := range t.touched {
		t.align -= t.netAlign[ni]
		t.over -= t.netOver[ni]
		t.refreshNet(ni)
		t.align += t.netAlign[ni]
		t.over += t.netOver[ni]
	}
	if t.est != nil {
		t.instBuf = t.instBuf[:0]
		for _, mv := range moves {
			t.instBuf = append(t.instBuf, mv.Inst)
		}
		t.est.Update(t.instBuf)
	}
}

// Objective assembles the tracked global objective. HPWL, the weighted sum
// and the pair reward are reduced in net order so the result is
// bit-identical to a fresh CalculateObj of the same placement.
func (t *ObjTracker) Objective() Objective {
	var obj Objective
	var weighted, reward float64
	for ni := range t.netHPWL {
		obj.HPWL += t.netHPWL[ni]
		weighted += t.netWght[ni]
		reward += t.netReward[ni]
	}
	obj.Alignments = t.align
	obj.OverlapSum = t.over
	obj.Value = t.prm.obj().Value(t.prm.weights(), weighted,
		obj.Alignments, obj.OverlapSum, reward)
	return obj
}

func sumInts(s []int) int {
	n := 0
	for _, v := range s {
		n += v
	}
	return n
}
