package objective

import "vm1place/internal/tech"

// slackAlpha is the timing-driven ClosedM1 workload: each net's α is
// scaled by a per-net multiplier derived from STA slack
// (sta.CriticalityBetas over sta.NetSlacks — critical nets get
// multipliers > 1), so critical nets buy alignment first when windows
// trade pairs against HPWL (GOALPlace-style end-metric weighting, see
// PAPERS.md). Geometry and MILP rows are exactly ClosedM1's; only the
// per-pair reward weight and the scalarization differ.
type slackAlpha struct{ closedM1 }

var slackAlphaObj GeomObjective = slackAlpha{}

func (slackAlpha) Name() string    { return "slackalpha" }
func (slackAlpha) Arch() tech.Arch { return tech.ClosedM1 }

// PairAlpha scales α by the net's slack-derived multiplier (entries <= 0
// or beyond the slice mean 1, as core.Params.NetAlpha documents).
func (slackAlpha) PairAlpha(w Weights, ni int) float64 {
	a := w.Alpha
	if ni < len(w.NetAlpha) && w.NetAlpha[ni] > 0 {
		a *= w.NetAlpha[ni]
	}
	return a
}

// Value uses the net-ordered reward sum Σ PairAlpha(n)·align(n) instead
// of the uniform α·#align term; the reduction order (reward accumulated
// net by net, then one subtraction each for reward and ε·over) is fixed
// so the incremental tracker reproduces a fresh rescan bit for bit.
func (slackAlpha) Value(w Weights, weighted float64, align int, over int64, reward float64) float64 {
	return weighted - reward - w.Epsilon*float64(over)
}
