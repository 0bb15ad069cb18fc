package core

import (
	"sort"
	"time"

	"vm1place/internal/geom"
)

// WindowScorer is the QoR-proxy interface guided window selection needs:
// score a die rectangle for optimization priority and track committed
// moves so scores stay current. internal/proxy's Estimator implements
// it; core depends only on this interface so the estimator package stays
// a leaf.
type WindowScorer interface {
	// WindowScore returns the optimization priority of a die-space
	// rectangle (higher = more predicted congestion / alignment
	// opportunity). Must be cheap: it is called once per window per pass.
	WindowScore(r geom.Rect) float64
	// Update re-evaluates the scorer after the given instances moved;
	// the placement already reflects the new locations when called.
	Update(insts []int)
}

// famPlan is the guided schedule of one DistOpt pass: which diagonal
// families to run, in what order, and each window's MILP wall budget.
type famPlan struct {
	order []int // family indices, hottest first; near-empty ones absent
	// wtl is the per-window TimeLimit, indexed by window id (the
	// passGrid rects index). Uniform plans give every window the
	// pass-wide budget.
	wtl []time.Duration
}

// uniformPlan is the identity schedule: every family in diagonal order,
// every window at the pass-wide budget.
func uniformPlan(g passGrid, families [][]int, tl time.Duration) famPlan {
	pl := famPlan{
		order: make([]int, len(families)),
		wtl:   make([]time.Duration, len(g.rects)),
	}
	for i := range families {
		pl.order[i] = i
	}
	for i := range pl.wtl {
		pl.wtl[i] = tl
	}
	return pl
}

// guidedPlan scores every window with the proxy and converts the scores
// into a schedule:
//
//   - Families run hottest-first (sum of window scores), so a run cut
//     short by a deadline has already spent its wall where the proxy
//     predicts routed pain.
//   - Families scoring below GuidedColdFrac of the hottest are skipped
//     outright. The default threshold is tight (1%): window objective
//     gains are only weakly predictable from congestion (cold windows
//     routinely match hot ones — measured in TestProbeFamilyGain's
//     ancestor; see DESIGN.md §4e), so the skip is meant for the
//     near-empty boundary slivers a shifted grid produces, where there
//     is genuinely nothing to solve.
//   - Each kept window's MILP TimeLimit is scaled by its own score:
//     budget = tl x (GuidedShrink + (GuidedBoostCap - GuidedShrink) x
//     score/maxScore). Pass wall is dominated by the hard windows that
//     exhaust their budget, and hard-but-cold windows spend that tail
//     on alignment crumbs the router cannot reward — shrinking them is
//     where the wall reduction comes from; hot windows keep (or gain)
//     budget. Untimed passes (tl <= 0) pass through unlimited.
//
// Determinism: scores are computed single-threaded from the placement in
// window order (float accumulation order fixed), and the family sort
// breaks ties on the family index, so the schedule is a pure function of
// the placement — identical across Workers settings, which is what lets
// the golden flow test and the worker-invariance tests hold under
// -guided.
func guidedPlan(prm Params, sc WindowScorer, g passGrid, families [][]int,
	tl time.Duration) famPlan {
	n := len(families)
	winScore := make([]float64, len(g.rects))
	maxWin := 0.0
	for wi := range g.rects {
		s := sc.WindowScore(g.rects[wi])
		winScore[wi] = s
		if s > maxWin {
			maxWin = s
		}
	}
	scores := make([]float64, n)
	maxS := 0.0
	for fi, fam := range families {
		s := 0.0
		for _, wi := range fam {
			s += winScore[wi]
		}
		scores[fi] = s
		if s > maxS {
			maxS = s
		}
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		fa, fb := order[a], order[b]
		if scores[fa] != scores[fb] {
			return scores[fa] > scores[fb]
		}
		return fa < fb
	})

	pl := famPlan{wtl: make([]time.Duration, len(g.rects))}
	if maxS <= 0 {
		// Nothing predicted anywhere (or a degenerate scorer): fall back
		// to the uniform schedule rather than skipping on noise.
		pl.order = order
		for i := range pl.wtl {
			pl.wtl[i] = tl
		}
		return pl
	}

	cold := prm.guidedColdFrac() * maxS
	for _, fi := range order {
		if scores[fi] >= cold {
			pl.order = append(pl.order, fi)
		}
	}
	if len(pl.order) == 0 { // unreachable (the max always qualifies); belt and braces
		pl.order = append(pl.order, order[0])
	}

	// Per-window budget shaping. Untimed runs keep their unlimited
	// budget — there the only guided lever is skipping empty families.
	shrink := prm.guidedShrink()
	bc := prm.guidedBoostCap()
	for wi := range pl.wtl {
		if tl <= 0 {
			pl.wtl[wi] = tl
			continue
		}
		m := shrink
		if maxWin > 0 {
			m += (bc - shrink) * winScore[wi] / maxWin
		}
		pl.wtl[wi] = time.Duration(float64(tl) * m)
	}
	return pl
}
