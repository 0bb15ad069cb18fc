package netlist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"vm1place/internal/cells"
)

// ErrBadGenConfig reports an unusable generator configuration. Generate
// wraps it, so callers can errors.Is against it.
var ErrBadGenConfig = errors.New("netlist: bad generator config")

// GenConfig parameterizes the synthetic netlist generator. The generator
// stands in for Design Compiler + the OpenCores RTL of the paper: it
// produces a combinationally acyclic netlist with Rent-style locality (a
// gate's fanins come from gates with nearby generation indices, which the
// global placer turns into spatial locality) and a realistic fanout
// distribution.
type GenConfig struct {
	Name      string
	NumInsts  int
	Seed      int64
	FFRatio   float64 // fraction of instances that are flip-flops
	PIRatio   float64 // probability an input is fed by a primary input
	Locality  float64 // stddev of fanin index distance, as fraction of N
	MaxFanout int     // resample when a net would exceed this fanout
	NumPorts  int     // primary input pool size (0: derived from N)
	// ChunkInsts sizes the builder's pin-net slabs in instances (0: 64k):
	// every instance's PinNets slice is carved from a shared per-chunk
	// slab instead of allocated individually, so a 1M-instance build
	// makes tens of slab allocations rather than a million small ones.
	// Purely a memory-layout knob — the generator's RNG call sequence
	// never depends on it, so any chunk size yields the identical design
	// for a given seed (TestGenerateChunkInvariance).
	ChunkInsts int
}

// DefaultGenConfig returns sensible defaults for n instances.
func DefaultGenConfig(name string, n int, seed int64) GenConfig {
	return GenConfig{
		Name:      name,
		NumInsts:  n,
		Seed:      seed,
		FFRatio:   0.12,
		PIRatio:   0.04,
		Locality:  0.02,
		MaxFanout: 10,
		NumPorts:  0,
	}
}

// combMix is the combinational master mix (weights sum to 100).
var combMix = []struct {
	name   string
	weight int
}{
	{"INV_X1", 18},
	{"INV_X2", 4},
	{"BUF_X1", 7},
	{"BUF_X2", 3},
	{"NAND2_X1", 16},
	{"NOR2_X1", 10},
	{"AND2_X1", 8},
	{"OR2_X1", 7},
	{"NAND3_X1", 6},
	{"XOR2_X1", 4},
	{"XNOR2_X1", 3},
	{"AOI21_X1", 6},
	{"OAI21_X1", 5},
	{"MUX2_X1", 3},
}

// Generate builds a synthetic design over lib according to cfg. The result
// always validates and is combinationally acyclic (combinational fanins
// come from lower-index combinational gates or from flip-flop outputs). A
// config too small to generate from is reported as an error wrapping
// ErrBadGenConfig.
func Generate(lib *cells.Library, cfg GenConfig) (*Design, error) {
	if cfg.NumInsts < 4 {
		return nil, fmt.Errorf("%w: NumInsts %d, must be >= 4", ErrBadGenConfig, cfg.NumInsts)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Design{Name: cfg.Name, Lib: lib}

	nFF := int(math.Round(cfg.FFRatio * float64(cfg.NumInsts)))
	if nFF < 1 {
		nFF = 1
	}
	nPI := cfg.NumPorts
	if nPI <= 0 {
		nPI = cfg.NumInsts / 50
		if nPI < 8 {
			nPI = 8
		}
	}

	// Exact-capacity preallocation: the instance and net counts are known
	// up front (clock + PIs + one output net per instance), so the big
	// slices never re-grow — append doubling on million-element slices of
	// multi-word structs is exactly the transient 2x the chunked builder
	// exists to avoid.
	d.Insts = make([]Instance, 0, cfg.NumInsts)
	d.Nets = make([]Net, 0, 1+nPI+cfg.NumInsts)
	d.Ports = make([]Port, 0, nPI+1)

	// Pin-net slab: PinNets slices are carved out of chunked backing
	// arrays. They are fixed-length for the life of the design (one entry
	// per master pin, never appended), so sharing a backing array is safe.
	chunk := cfg.ChunkInsts
	if chunk <= 0 {
		chunk = 1 << 16
	}
	var pinSlab []int
	carvePins := func(n int) []int {
		if cap(pinSlab)-len(pinSlab) < n {
			sz := 4 * chunk // combMix masters average under 4 pins
			if sz < n {
				sz = n
			}
			pinSlab = make([]int, 0, sz)
		}
		s := pinSlab[len(pinSlab) : len(pinSlab)+n : len(pinSlab)+n]
		pinSlab = pinSlab[:len(pinSlab)+n]
		return s
	}

	// Interleave FFs uniformly through the index order so locality-based
	// fanin selection sees register boundaries everywhere.
	isFF := make([]bool, cfg.NumInsts)
	for k := 0; k < nFF; k++ {
		isFF[k*cfg.NumInsts/nFF] = true
	}

	totalWeight := 0
	for _, cm := range combMix {
		totalWeight += cm.weight
	}
	pickComb := func() *cells.Master {
		r := rng.Intn(totalWeight)
		for _, cm := range combMix {
			if r < cm.weight {
				return lib.MustMaster(cm.name)
			}
			r -= cm.weight
		}
		return lib.MustMaster("INV_X1")
	}

	// Clock net at index 0.
	d.Nets = append(d.Nets, Net{Name: "clk", Driver: Conn{Inst: -1}, IsClock: true})
	clockNet := 0

	// Primary-input nets.
	piNets := make([]int, nPI)
	for i := 0; i < nPI; i++ {
		ni := len(d.Nets)
		d.Nets = append(d.Nets, Net{Name: fmt.Sprintf("pi_%d", i), Driver: Conn{Inst: -1}})
		d.AddPort(Port{
			Name:  fmt.Sprintf("pi_%d", i),
			Net:   ni,
			Input: true,
			Side:  Side(i % 4),
			Pos:   rng.Float64(),
		})
		piNets[i] = ni
	}
	d.AddPort(Port{Name: "clk", Net: clockNet, Input: true, Side: West, Pos: 0})

	// Instances and their output nets.
	outNet := make([]int, cfg.NumInsts)
	for i := 0; i < cfg.NumInsts; i++ {
		var m *cells.Master
		if isFF[i] {
			m = lib.MustMaster("DFF_X1")
		} else {
			m = pickComb()
		}
		inst := Instance{
			Name:    fmt.Sprintf("u%d", i),
			Master:  m,
			PinNets: carvePins(len(m.Pins)),
		}
		for k := range inst.PinNets {
			inst.PinNets[k] = -1
		}
		d.Insts = append(d.Insts, inst)

		outPinIdx := pinIndex(m, m.OutputPin())
		ni := len(d.Nets)
		d.Nets = append(d.Nets, Net{
			Name:   fmt.Sprintf("n%d", i),
			Driver: Conn{Inst: i, Pin: outPinIdx},
		})
		d.Insts[i].PinNets[outPinIdx] = ni
		outNet[i] = ni
	}

	sigma := cfg.Locality * float64(cfg.NumInsts)
	if sigma < 2 {
		sigma = 2
	}

	// sampleFanin picks a source net for an input of instance i, keeping
	// the combinational graph acyclic: combinational sources must have a
	// smaller index unless they are FFs.
	sampleFanin := func(i int) int {
		if rng.Float64() < cfg.PIRatio {
			return piNets[rng.Intn(nPI)]
		}
		for try := 0; try < 64; try++ {
			off := int(math.Round(rng.NormFloat64() * sigma))
			j := i + off
			if j < 0 || j >= cfg.NumInsts || j == i {
				continue
			}
			if !isFF[j] && j >= i {
				continue // would create a combinational cycle risk
			}
			ni := outNet[j]
			if len(d.Nets[ni].Sinks) >= cfg.MaxFanout {
				continue
			}
			return ni
		}
		return piNets[rng.Intn(nPI)]
	}

	for i := 0; i < cfg.NumInsts; i++ {
		m := d.Insts[i].Master
		for pi := range m.Pins {
			p := &m.Pins[pi]
			if p.Dir != cells.Input {
				continue
			}
			var ni int
			if m.IsFF && p.Name == "CK" {
				ni = clockNet
			} else {
				ni = sampleFanin(i)
			}
			d.Insts[i].PinNets[pi] = ni
			d.Nets[ni].Sinks = append(d.Nets[ni].Sinks, Conn{Inst: i, Pin: pi})
		}
	}

	// Give floating instance outputs a primary-output port so no net
	// dangles (paralleling synthesis keeping observable outputs).
	po := 0
	for i := 0; i < cfg.NumInsts; i++ {
		ni := outNet[i]
		if len(d.Nets[ni].Sinks) == 0 {
			d.AddPort(Port{
				Name:  fmt.Sprintf("po_%d", po),
				Net:   ni,
				Input: false,
				Side:  Side(po % 4),
				Pos:   rng.Float64(),
			})
			po++
		}
	}

	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("netlist: generated design invalid: %w", err)
	}
	return d, nil
}

// MustGenerate is Generate panicking on error; for tests and examples with
// known-good configs.
func MustGenerate(lib *cells.Library, cfg GenConfig) *Design {
	d, err := Generate(lib, cfg)
	if err != nil {
		panic(err) // panic-ok: Must* wrapper
	}
	return d
}

func pinIndex(m *cells.Master, p *cells.Pin) int {
	for i := range m.Pins {
		if &m.Pins[i] == p {
			return i
		}
	}
	// Masters always contain their own pins; reaching here means the
	// caller passed a pin from a different master.
	panic("netlist: pin not in master") // panic-ok: invariant
}
