package objective

import (
	"errors"
	"fmt"
	"strings"

	"vm1place/internal/lp"
	"vm1place/internal/tech"
)

// ErrUnknownObjective reports a Lookup of a name no objective has.
// Lookup wraps it, so callers can errors.Is against it.
var ErrUnknownObjective = errors.New("objective: unknown objective")

// objectives is every named objective, sorted by name.
var objectives = []GeomObjective{closedM1Obj, netSepObj, openM1Obj, slackAlphaObj}

// Lookup resolves an objective by name. Unknown names return an error
// wrapping ErrUnknownObjective that lists the known names.
func Lookup(name string) (GeomObjective, error) {
	for _, o := range objectives {
		if o.Name() == name {
			return o, nil
		}
	}
	return nil, fmt.Errorf("%w: %q (registered: %s)",
		ErrUnknownObjective, name, strings.Join(Names(), "|"))
}

// Names returns the objective names in sorted order.
func Names() []string {
	names := make([]string, len(objectives))
	for i, o := range objectives {
		names[i] = o.Name()
	}
	return names
}

// ForArch returns the paper objective matching a cell architecture — the
// default when no objective is named explicitly. Architectures with
// nothing to optimize (Conventional) get the inert "none" objective,
// preserving the pre-refactor behavior of the Arch switches' default
// cases: no pairs, Value = Σβn·wn.
func ForArch(arch tech.Arch) GeomObjective {
	switch arch {
	case tech.ClosedM1:
		return closedM1Obj
	case tech.OpenM1:
		return openM1Obj
	default:
		return noneObj
	}
}

// none is the inert objective: no pair is ever feasible or realized.
type none struct{}

var noneObj GeomObjective = none{}

func (none) Name() string                                   { return "none" }
func (none) Arch() tech.Arch                                { return tech.Conventional }
func (none) PairAlpha(w Weights, ni int) float64            { return w.Alpha }
func (none) PairEval(w Weights, a, b PinGeom) (bool, int64) { return false, 0 }
func (none) PairFeasible(w Weights, a, b PinView) bool      { return false }
func (none) EmitPair(e Emit, w Weights, d int, p, q PinView, tb []lp.Term) []lp.Term {
	return tb
}
func (none) Value(w Weights, weighted float64, align int, over int64, reward float64) float64 {
	return uniformValue(w, weighted, align, over)
}
