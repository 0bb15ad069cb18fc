package sta

import (
	"math"

	"vm1place/internal/cells"
	"vm1place/internal/layout"
)

// NetSlacks computes the worst timing slack of every net (at its driver
// output) via a required-time backward pass, complementing Analyze's
// forward arrival pass. Slack of the most critical net equals the WNS when
// it is negative. Clock and undriven nets report +Inf.
//
// This powers the paper's future-work extension of timing-driven
// weighting: the "slackalpha" objective's per-net α (core.Params.NetAlpha).
func NetSlacks(p *layout.Placement, cfg Config, lengths NetLengths) []float64 {
	d := p.Design
	nl := func(ni int) int64 {
		if lengths != nil {
			return lengths(ni)
		}
		return p.NetHPWL(ni)
	}

	netLoad := make([]float64, len(d.Nets))
	for ni := range d.Nets {
		n := &d.Nets[ni]
		if n.IsClock {
			continue
		}
		load := cfg.WireCapPerDBU * float64(nl(ni))
		for _, s := range n.Sinks {
			load += d.Insts[s.Inst].Master.InputCap
		}
		netLoad[ni] = load
	}

	// Forward arrivals (shared with Analyze).
	arrival := forwardArrivals(d, cfg, nl, netLoad)

	// Backward required times. The generator guarantees reverse instance
	// order is reverse-topological for the combinational graph.
	req := make([]float64, len(d.Nets))
	for ni := range req {
		req[ni] = math.Inf(1)
	}
	lower := func(ni int, v float64) {
		if v < req[ni] {
			req[ni] = v
		}
	}
	// Endpoints: primary outputs and FF D pins capture at the clock edge.
	for _, pt := range d.Ports {
		if !pt.Input {
			lower(pt.Net, cfg.ClockPeriodNs-cfg.WireDelayPerDBU*float64(nl(pt.Net)))
		}
	}
	for i := range d.Insts {
		m := d.Insts[i].Master
		if !m.IsFF {
			continue
		}
		for pi, ni := range d.Insts[i].PinNets {
			if ni < 0 || d.Nets[ni].IsClock {
				continue
			}
			if m.Pins[pi].Dir == cells.Input {
				lower(ni, cfg.ClockPeriodNs-cfg.WireDelayPerDBU*float64(nl(ni)))
			}
		}
	}
	for i := len(d.Insts) - 1; i >= 0; i-- {
		m := d.Insts[i].Master
		if m.IsFF {
			continue
		}
		out := outNetOf(d, i)
		if out < 0 {
			continue
		}
		delay := m.Intrinsic + m.DriveRes*netLoad[out]
		for pi, ni := range d.Insts[i].PinNets {
			if ni < 0 || d.Nets[ni].IsClock {
				continue
			}
			if m.Pins[pi].Dir == cells.Input {
				lower(ni, req[out]-delay-cfg.WireDelayPerDBU*float64(nl(ni)))
			}
		}
	}

	slack := make([]float64, len(d.Nets))
	for ni := range d.Nets {
		if d.Nets[ni].IsClock || math.IsInf(req[ni], 1) {
			slack[ni] = math.Inf(1)
			continue
		}
		slack[ni] = req[ni] - arrival[ni]
	}
	return slack
}

// CriticalityBetas converts per-net slacks into criticality multipliers
// (the slackalpha objective's per-net α weights): nets with slack at or
// below zero get 1+weight, nets with slack ≥ period get 1, linear in
// between. Clock/unconstrained nets get 1.
func CriticalityBetas(slacks []float64, periodNs, weight float64) []float64 {
	betas := make([]float64, len(slacks))
	for i, s := range slacks {
		switch {
		case math.IsInf(s, 1):
			betas[i] = 1
		case s <= 0:
			betas[i] = 1 + weight
		case s >= periodNs:
			betas[i] = 1
		default:
			betas[i] = 1 + weight*(1-s/periodNs)
		}
	}
	return betas
}
