package netlist

import (
	"errors"
	"strings"
	"testing"

	"vm1place/internal/cells"
	"vm1place/internal/tech"
)

func testLib(t *testing.T, arch tech.Arch) *cells.Library {
	t.Helper()
	return cells.MustNewLibrary(tech.Default(), arch)
}

func TestGenerateValidates(t *testing.T) {
	for _, arch := range []tech.Arch{tech.ClosedM1, tech.OpenM1} {
		lib := testLib(t, arch)
		d := MustGenerate(lib, DefaultGenConfig("t1", 500, 42))
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if len(d.Insts) != 500 {
			t.Errorf("%s: got %d instances", arch, len(d.Insts))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	lib := testLib(t, tech.ClosedM1)
	a := MustGenerate(lib, DefaultGenConfig("x", 300, 7))
	b := MustGenerate(lib, DefaultGenConfig("x", 300, 7))
	if len(a.Nets) != len(b.Nets) || len(a.Ports) != len(b.Ports) {
		t.Fatal("same seed produced different shapes")
	}
	for i := range a.Insts {
		if a.Insts[i].Master.Name != b.Insts[i].Master.Name {
			t.Fatalf("inst %d differs: %s vs %s", i, a.Insts[i].Master.Name, b.Insts[i].Master.Name)
		}
		for k := range a.Insts[i].PinNets {
			if a.Insts[i].PinNets[k] != b.Insts[i].PinNets[k] {
				t.Fatalf("inst %d pin %d net differs", i, k)
			}
		}
	}
	c := MustGenerate(lib, DefaultGenConfig("x", 300, 8))
	same := true
	for i := range a.Insts {
		if a.Insts[i].Master.Name != c.Insts[i].Master.Name {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical master sequence (suspicious)")
	}
}

func TestGenerateStats(t *testing.T) {
	lib := testLib(t, tech.ClosedM1)
	cfg := DefaultGenConfig("s", 2000, 1)
	d := MustGenerate(lib, cfg)
	s := d.Stats()
	if s.NumInsts != 2000 {
		t.Errorf("NumInsts = %d", s.NumInsts)
	}
	ffLo, ffHi := int(0.8*cfg.FFRatio*2000), int(1.2*cfg.FFRatio*2000)+1
	if s.NumFFs < ffLo || s.NumFFs > ffHi {
		t.Errorf("NumFFs = %d, want within [%d,%d]", s.NumFFs, ffLo, ffHi)
	}
	if s.MaxFanout > cfg.MaxFanout {
		t.Errorf("MaxFanout = %d exceeds cap %d", s.MaxFanout, cfg.MaxFanout)
	}
	if s.AvgFanout <= 0.5 || s.AvgFanout > 5 {
		t.Errorf("AvgFanout = %f implausible", s.AvgFanout)
	}
	if s.TotalSites <= int64(2*s.NumInsts) {
		t.Errorf("TotalSites = %d implausible", s.TotalSites)
	}
}

func TestCombinationalAcyclicity(t *testing.T) {
	lib := testLib(t, tech.ClosedM1)
	d := MustGenerate(lib, DefaultGenConfig("dag", 1500, 3))
	// Every combinational instance's fanins must come from strictly
	// lower-index combinational instances, FFs, or ports.
	for i := range d.Insts {
		m := d.Insts[i].Master
		if m.IsFF {
			continue
		}
		for pi, ni := range d.Insts[i].PinNets {
			if ni < 0 || m.Pins[pi].Dir != cells.Input {
				continue
			}
			drv := d.Nets[ni].Driver
			if drv.Inst < 0 {
				continue // port-driven
			}
			if !d.Insts[drv.Inst].Master.IsFF && drv.Inst >= i {
				t.Fatalf("comb inst %d has fanin from comb inst %d (cycle risk)", i, drv.Inst)
			}
		}
	}
}

func TestClockNetOnlyFFs(t *testing.T) {
	lib := testLib(t, tech.ClosedM1)
	d := MustGenerate(lib, DefaultGenConfig("clk", 800, 9))
	var clock *Net
	for i := range d.Nets {
		if d.Nets[i].IsClock {
			if clock != nil {
				t.Fatal("multiple clock nets")
			}
			clock = &d.Nets[i]
		}
	}
	if clock == nil {
		t.Fatal("no clock net")
	}
	for _, s := range clock.Sinks {
		m := d.Insts[s.Inst].Master
		if !m.IsFF || m.Pins[s.Pin].Name != "CK" {
			t.Errorf("clock sink %s.%s is not a FF CK pin", m.Name, m.Pins[s.Pin].Name)
		}
	}
	st := d.Stats()
	if len(clock.Sinks) != st.NumFFs {
		t.Errorf("clock fanout %d != #FFs %d", len(clock.Sinks), st.NumFFs)
	}
}

func TestNoDanglingNets(t *testing.T) {
	lib := testLib(t, tech.OpenM1)
	d := MustGenerate(lib, DefaultGenConfig("dangle", 600, 11))
	portNets := map[int]bool{}
	for _, p := range d.Ports {
		portNets[p.Net] = true
	}
	for i := range d.Nets {
		n := &d.Nets[i]
		if n.IsClock {
			continue
		}
		if len(n.Sinks) == 0 && !portNets[i] {
			t.Errorf("net %s has no sinks and no port", n.Name)
		}
	}
}

func TestSignalNetsExcludesClock(t *testing.T) {
	lib := testLib(t, tech.ClosedM1)
	d := MustGenerate(lib, DefaultGenConfig("sn", 400, 5))
	for _, ni := range d.SignalNets() {
		if d.Nets[ni].IsClock {
			t.Fatal("SignalNets returned the clock net")
		}
	}
}

func TestNetForEachConn(t *testing.T) {
	n := Net{
		Driver: Conn{Inst: 3, Pin: 1},
		Sinks:  []Conn{{Inst: 4, Pin: 0}, {Inst: 5, Pin: 2}},
	}
	var got []Conn
	n.ForEachConn(func(c Conn) { got = append(got, c) })
	if len(got) != 3 || got[0] != n.Driver {
		t.Errorf("ForEachConn = %v", got)
	}
	if n.NumConns() != 3 {
		t.Errorf("NumConns = %d", n.NumConns())
	}
	portDriven := Net{Driver: Conn{Inst: -1}, Sinks: []Conn{{Inst: 1, Pin: 0}}}
	if portDriven.NumConns() != 1 {
		t.Errorf("port-driven NumConns = %d", portDriven.NumConns())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	lib := testLib(t, tech.ClosedM1)
	base := func() *Design { return MustGenerate(lib, DefaultGenConfig("v", 100, 2)) }

	d := base()
	d.Nets[1].Sinks = append(d.Nets[1].Sinks, Conn{Inst: 10_000, Pin: 0})
	if d.Validate() == nil {
		t.Error("bad instance index not caught")
	}

	d = base()
	// Bind a signal input pin to -1.
	for i := range d.Insts {
		for pi := range d.Insts[i].PinNets {
			if d.Insts[i].Master.Pins[pi].Dir == cells.Input {
				d.Insts[i].PinNets[pi] = -1
				if d.Validate() == nil {
					t.Error("unconnected input not caught")
				}
				return
			}
		}
	}
}

// TestValidateChecksNetPorts corrupts Net.Ports of a generated design so
// that it disagrees with Port.Net; Validate must name each corruption.
func TestValidateChecksNetPorts(t *testing.T) {
	lib := testLib(t, tech.ClosedM1)
	for _, tc := range []struct {
		name string
		// corrupt edits Net.Ports given the design's last two ports, a < b:
		// primary outputs on two nets that list only them.
		corrupt func(d *Design, a, b int)
		want    string
	}{
		{"port missing from its net", func(d *Design, a, b int) {
			d.Nets[d.Ports[b].Net].Ports = nil
		}, "missing from the Ports of net"},
		{"entry naming another net's port", func(d *Design, a, b int) {
			n := &d.Nets[d.Ports[a].Net]
			n.Ports = append(n.Ports, b)
		}, "belongs to net"},
		{"duplicated entry", func(d *Design, a, b int) {
			n := &d.Nets[d.Ports[b].Net]
			n.Ports = append(n.Ports, b)
		}, "listed after"},
		{"out-of-range entry", func(d *Design, a, b int) {
			n := &d.Nets[d.Ports[b].Net]
			n.Ports = append(n.Ports, len(d.Ports))
		}, "bad port index"},
	} {
		d := MustGenerate(lib, DefaultGenConfig("v", 100, 2))
		a, b := len(d.Ports)-2, len(d.Ports)-1
		for _, pi := range []int{a, b} {
			if n := d.Nets[d.Ports[pi].Net]; d.Ports[pi].Input || len(n.Ports) != 1 {
				t.Fatalf("port %s: want a primary output alone on its net, net lists %v", d.Ports[pi].Name, n.Ports)
			}
		}
		tc.corrupt(d, a, b)
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestGenerateRejectsTinyN(t *testing.T) {
	lib := testLib(t, tech.ClosedM1)
	d, err := Generate(lib, DefaultGenConfig("tiny", 2, 1))
	if !errors.Is(err, ErrBadGenConfig) {
		t.Errorf("want ErrBadGenConfig for NumInsts < 4, got %v", err)
	}
	if d != nil {
		t.Error("got non-nil design alongside error")
	}
}
