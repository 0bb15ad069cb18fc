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
	p    *layout.Placement
	prm  Params
	rule pairRule

	netHPWL   []int64   // per-net HPWL, zero for clock nets (as TotalHPWL)
	netAlign  []int     // per-net dM1-eligible pair count (non-clock)
	netOver   []int64   // per-net overlap surplus (OpenM1, non-clock)
	netReward []float64 // per-net PairAlpha·align (non-clock)
	instNets  [][]int   // inst -> distinct incident net indices

	// epoch-marked dedup of nets touched by one ApplyMoves batch.
	mark    []int
	epoch   int
	touched []int

	termBuf []netPin // reused terminal scratch (no per-net allocation)

	// onCommit, when set, runs after every committed batch. Tests use it
	// to act at an exact commit, such as canceling the run.
	onCommit func()

	align int
	over  int64
}

// NewObjTracker fully evaluates the placement and builds the incremental
// caches. Cost is one CalculateObj-equivalent scan plus the inst→nets
// index.
func NewObjTracker(p *layout.Placement, prm Params) *ObjTracker {
	nNets := len(p.Design.Nets)
	nInsts := len(p.Design.Insts)
	t := &ObjTracker{
		p:         p,
		prm:       prm,
		rule:      newPairRule(prm, p.Tech),
		netHPWL:   make([]int64, nNets),
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
// placement, through the same netStats CalculateObj sums.
func (t *ObjTracker) refreshNet(ni int) {
	if t.p.Design.Nets[ni].IsClock {
		return // never contributes; caches stay zero
	}
	t.netHPWL[ni] = t.p.NetHPWL(ni)
	t.netAlign[ni], t.netOver[ni], t.netReward[ni] = t.rule.netStats(t.p, ni, &t.termBuf)
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
	if t.onCommit != nil {
		t.onCommit()
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
		weighted += float64(t.netHPWL[ni])
		reward += t.netReward[ni]
	}
	obj.Alignments = t.align
	obj.OverlapSum = t.over
	obj.Value = t.rule.obj.Value(t.rule.w, weighted, obj.Alignments, obj.OverlapSum, reward)
	return obj
}

func sumInts(s []int) int {
	n := 0
	for _, v := range s {
		n += v
	}
	return n
}
