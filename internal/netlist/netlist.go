// Package netlist provides the gate-level design model of vm1place —
// instances, nets and ports — plus a seeded synthetic generator that
// stands in for the paper's synthesized OpenCores/Cortex-M0 testcases.
//
// A Design is pure connectivity; placement lives in internal/layout and
// geometry in internal/cells. Nets reference instance pins by (instance
// index, pin index into the master's Pins slice), which keeps the model
// compact and allocation-friendly at the 10^4–10^5 instance scale of the
// paper's testcases.
package netlist

import (
	"fmt"
	"slices"

	"vm1place/internal/cells"
)

// Conn identifies one instance pin: instance index within Design.Insts and
// pin index within the instance master's Pins.
type Conn struct {
	Inst int
	Pin  int
}

// Side is a die edge for port placement.
type Side int

const (
	West Side = iota
	East
	North
	South
)

// Port is a primary input or output. Pos is a fraction in [0,1] along its
// side; the layout package turns it into DBU coordinates once the die is
// sized.
type Port struct {
	Name  string
	Net   int
	Input bool // true: primary input (drives the net)
	Side  Side
	Pos   float64
}

// Net is a signal net. Driver is the connection that sources the net
// (negative Inst when the net is driven by a primary input port). Sinks are
// the load connections. Ports lists the indices into Design.Ports of the
// net's ports, in port order; it mirrors Port.Net as Driver and Sinks
// mirror Instance.PinNets. IsClock marks the clock net, which is excluded
// from the dM1 optimization and from signal routing (a CTS would own it in
// a production flow).
type Net struct {
	Name    string
	Driver  Conn
	Sinks   []Conn
	Ports   []int
	IsClock bool
}

// NumConns returns the number of instance-pin connections on the net
// (driver included when it is an instance pin).
func (n *Net) NumConns() int {
	c := len(n.Sinks)
	if n.Driver.Inst >= 0 {
		c++
	}
	return c
}

// ForEachConn calls f for the driver (if an instance pin) and every sink.
func (n *Net) ForEachConn(f func(Conn)) {
	if n.Driver.Inst >= 0 {
		f(n.Driver)
	}
	for _, s := range n.Sinks {
		f(s)
	}
}

// Instance is one placed-or-placeable cell.
type Instance struct {
	Name   string
	Master *cells.Master
	// PinNets[k] is the net index connected to master pin k, or -1.
	PinNets []int
}

// Design is a gate-level netlist bound to one library.
type Design struct {
	Name  string
	Lib   *cells.Library
	Insts []Instance
	Nets  []Net
	Ports []Port
}

// AddPort appends pt to the design's ports and lists it on its net.
func (d *Design) AddPort(pt Port) {
	d.Nets[pt.Net].Ports = append(d.Nets[pt.Net].Ports, len(d.Ports))
	d.Ports = append(d.Ports, pt)
}

// SignalNets returns the indices of non-clock nets with at least two
// connections — the nets the optimizer and router operate on.
func (d *Design) SignalNets() []int {
	var out []int
	for i := range d.Nets {
		n := &d.Nets[i]
		if n.IsClock {
			continue
		}
		if n.NumConns()+boolToInt(n.Driver.Inst < 0) >= 2 {
			out = append(out, i)
		}
	}
	return out
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Stats summarizes a design.
type Stats struct {
	NumInsts   int
	NumNets    int
	NumPorts   int
	NumFFs     int
	TotalSites int64
	AvgFanout  float64
	MaxFanout  int
}

// Stats computes summary statistics.
func (d *Design) Stats() Stats {
	var s Stats
	s.NumInsts = len(d.Insts)
	s.NumNets = len(d.Nets)
	s.NumPorts = len(d.Ports)
	for i := range d.Insts {
		if d.Insts[i].Master.IsFF {
			s.NumFFs++
		}
		s.TotalSites += int64(d.Insts[i].Master.WidthSites)
	}
	totalSinks := 0
	drivenNets := 0
	for i := range d.Nets {
		n := &d.Nets[i]
		if n.IsClock {
			continue
		}
		drivenNets++
		totalSinks += len(n.Sinks)
		if len(n.Sinks) > s.MaxFanout {
			s.MaxFanout = len(n.Sinks)
		}
	}
	if drivenNets > 0 {
		s.AvgFanout = float64(totalSinks) / float64(drivenNets)
	}
	return s
}

// Validate checks referential integrity: every connection resolves, every
// input pin is connected exactly once, every net has exactly one driver,
// PinNets is consistent with Nets, and Net.Ports with Port.Net.
func (d *Design) Validate() error {
	// Net.Ports and Port.Net agree: each list ascends and names ports of
	// its own net, and every port is listed.
	listed := make([]bool, len(d.Ports))
	for ni := range d.Nets {
		n := &d.Nets[ni]
		for k, pi := range n.Ports {
			switch {
			case pi < 0 || pi >= len(d.Ports):
				return fmt.Errorf("net %s: bad port index %d", n.Name, pi)
			case k > 0 && pi <= n.Ports[k-1]:
				return fmt.Errorf("net %s: port %d listed after port %d", n.Name, pi, n.Ports[k-1])
			case d.Ports[pi].Net != ni:
				return fmt.Errorf("net %s: port %s belongs to net %d", n.Name, d.Ports[pi].Name, d.Ports[pi].Net)
			}
			listed[pi] = true
		}
	}
	for pi, p := range d.Ports {
		if p.Net < 0 || p.Net >= len(d.Nets) {
			return fmt.Errorf("port %s: bad net %d", p.Name, p.Net)
		}
		if !listed[pi] {
			return fmt.Errorf("port %s: missing from the Ports of net %s", p.Name, d.Nets[p.Net].Name)
		}
	}
	for ni := range d.Nets {
		n := &d.Nets[ni]
		check := func(c Conn, wantDir cells.PinDir) error {
			if c.Inst < 0 || c.Inst >= len(d.Insts) {
				return fmt.Errorf("net %s: bad instance index %d", n.Name, c.Inst)
			}
			m := d.Insts[c.Inst].Master
			if c.Pin < 0 || c.Pin >= len(m.Pins) {
				return fmt.Errorf("net %s: bad pin index %d on %s", n.Name, c.Pin, m.Name)
			}
			if m.Pins[c.Pin].Dir != wantDir {
				return fmt.Errorf("net %s: pin %s.%s is %s, want %s",
					n.Name, m.Name, m.Pins[c.Pin].Name, m.Pins[c.Pin].Dir, wantDir)
			}
			if got := d.Insts[c.Inst].PinNets[c.Pin]; got != ni {
				return fmt.Errorf("net %s: PinNets[%d] of inst %d is %d, want %d",
					n.Name, c.Pin, c.Inst, got, ni)
			}
			return nil
		}
		if n.Driver.Inst >= 0 {
			if err := check(n.Driver, cells.Output); err != nil {
				return err
			}
		} else if !n.IsClock && !slices.ContainsFunc(n.Ports, func(pi int) bool { return d.Ports[pi].Input }) {
			// Port-driven, so some port must claim this net as input.
			return fmt.Errorf("net %s has no driver", n.Name)
		}
		for _, s := range n.Sinks {
			if err := check(s, cells.Input); err != nil {
				return err
			}
		}
	}
	for ii := range d.Insts {
		inst := &d.Insts[ii]
		if len(inst.PinNets) != len(inst.Master.Pins) {
			return fmt.Errorf("inst %s: PinNets length %d, want %d",
				inst.Name, len(inst.PinNets), len(inst.Master.Pins))
		}
		for pi, ni := range inst.PinNets {
			p := &inst.Master.Pins[pi]
			if !p.IsSignal() {
				if ni != -1 {
					return fmt.Errorf("inst %s: power pin %s bound to net %d", inst.Name, p.Name, ni)
				}
				continue
			}
			if ni == -1 {
				return fmt.Errorf("inst %s: signal pin %s unconnected", inst.Name, p.Name)
			}
			if ni < 0 || ni >= len(d.Nets) {
				return fmt.Errorf("inst %s: pin %s bound to bad net %d", inst.Name, p.Name, ni)
			}
		}
	}
	return nil
}
