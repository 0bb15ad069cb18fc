package lefdef

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"

	"vm1place/internal/cells"
	"vm1place/internal/geom"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/tech"
)

// maxDieSites caps a parsed die's placement sites (rows x sites per row).
// It admits dies for several million instances, and it keeps a hostile
// DIEAREA from sizing the legality check's occupancy grid, and the
// router's per-site arrays after it, at gigabytes.
const maxDieSites = 1 << 24

// ParseDEF reads a placed design in the subset written by WriteDEF, binding
// instances to masters from lib. It reconstructs the netlist (components,
// pins, nets) and the placement (locations, orientations, die, ports).
// A placement that is not legal — a component off the die or overlapping
// another — is an error, and so are ROWs that do not tile the die. Every
// such error wraps ErrBadDEF.
func ParseDEF(r io.Reader, t *tech.Tech, lib *cells.Library) (*layout.Placement, error) {
	tk := newTokenizer(r)
	d := &netlist.Design{Lib: lib}
	var dieW, dieH int64
	var rows [][]string // each ROW statement's tokens, checked against the die at the end

	instIdx := map[string]int{}
	netIdx := map[string]int{}
	type portLoc struct {
		idx  int
		x, y int64
	}
	var portLocs []portLoc

	type placedInst struct {
		x, y int64
		flip bool
	}
	var placed []placedInst

	getNet := func(name string) int {
		if ni, ok := netIdx[name]; ok {
			return ni
		}
		ni := len(d.Nets)
		d.Nets = append(d.Nets, netlist.Net{Name: name, Driver: netlist.Conn{Inst: -1}})
		netIdx[name] = ni
		return ni
	}

	for {
		tok := tk.next()
		if tok == "" {
			break
		}
		switch tok {
		case "DESIGN":
			rest := tk.until()
			if len(rest) > 0 {
				d.Name = rest[0]
			}
		case "DIEAREA":
			var err error
			if dieW, dieH, err = parseDieArea(tk.until()); err != nil {
				return nil, err
			}
		case "ROW":
			rows = append(rows, tk.until())
		case "COMPONENTS":
			tk.until()
			for {
				lead := tk.next()
				if lead == "END" {
					tk.peekConsume("COMPONENTS")
					break
				}
				if lead != "-" {
					return nil, fmt.Errorf("%w: expected '-' in COMPONENTS, got %q", ErrBadDEF, lead)
				}
				rest := tk.until()
				if len(rest) < 2 {
					return nil, fmt.Errorf("%w: short component line %v", ErrBadDEF, rest)
				}
				name, masterName := rest[0], rest[1]
				master := lib.Master(masterName)
				if master == nil {
					return nil, fmt.Errorf("%w: unknown master %q", ErrBadDEF, masterName)
				}
				inst := netlist.Instance{
					Name:    name,
					Master:  master,
					PinNets: make([]int, len(master.Pins)),
				}
				for k := range inst.PinNets {
					inst.PinNets[k] = -1
				}
				var pl placedInst
				for k := 2; k < len(rest); k++ { // past the name and master
					if rest[k] == "PLACED" && k+4 < len(rest) {
						x, err1 := strconv.ParseInt(rest[k+2], 10, 64)
						y, err2 := strconv.ParseInt(rest[k+3], 10, 64)
						if err1 != nil || err2 != nil {
							return nil, fmt.Errorf("%w: bad PLACED coords in %v", ErrBadDEF, rest)
						}
						pl.x, pl.y = x, y
						if k+5 < len(rest) && rest[k+5] == "FN" {
							pl.flip = true
						}
					}
				}
				instIdx[name] = len(d.Insts)
				d.Insts = append(d.Insts, inst)
				placed = append(placed, pl)
			}
		case "PINS":
			tk.until()
			for {
				lead := tk.next()
				if lead == "END" {
					tk.peekConsume("PINS")
					break
				}
				if lead != "-" {
					return nil, fmt.Errorf("%w: expected '-' in PINS, got %q", ErrBadDEF, lead)
				}
				rest := tk.until()
				if len(rest) < 1 {
					continue
				}
				port := netlist.Port{Name: rest[0]}
				var px, py int64
				net := ""
				// Each keyword consumes its values, so a name that reads
				// like a keyword is not taken for one.
				for k := 1; k < len(rest); k++ { // past the name
					switch rest[k] {
					case "NET":
						if k+1 < len(rest) {
							if net != "" {
								return nil, fmt.Errorf("%w: pin %s names two nets", ErrBadDEF, port.Name)
							}
							k++
							net = rest[k]
						}
					case "DIRECTION":
						if k+1 < len(rest) {
							k++
							port.Input = rest[k] == "INPUT"
						}
					case "FIXED":
						if k+4 < len(rest) {
							var err1, err2 error
							px, err1 = strconv.ParseInt(rest[k+2], 10, 64)
							py, err2 = strconv.ParseInt(rest[k+3], 10, 64)
							if err := errors.Join(err1, err2); err != nil {
								return nil, fmt.Errorf("%w: bad FIXED coords of pin %s: %w", ErrBadDEF, port.Name, err)
							}
							k += 4
						}
					}
				}
				if net == "" {
					return nil, fmt.Errorf("%w: pin %s names no net", ErrBadDEF, port.Name)
				}
				port.Net = getNet(net)
				portLocs = append(portLocs, portLoc{idx: len(d.Ports), x: px, y: py})
				d.AddPort(port)
			}
		case "NETS":
			tk.until()
			for {
				lead := tk.next()
				if lead == "END" {
					tk.peekConsume("NETS")
					break
				}
				if lead != "-" {
					return nil, fmt.Errorf("%w: expected '-' in NETS, got %q", ErrBadDEF, lead)
				}
				rest := tk.until()
				if len(rest) < 1 {
					continue
				}
				ni := getNet(rest[0])
				net := &d.Nets[ni]
				for k := 1; k < len(rest); k++ {
					if rest[k] != "(" {
						if rest[k] == "USE" && k+1 < len(rest) && rest[k+1] == "CLOCK" {
							net.IsClock = true
						}
						continue
					}
					if k+2 >= len(rest) {
						return nil, fmt.Errorf("%w: truncated net term in %v", ErrBadDEF, rest)
					}
					a, b := rest[k+1], rest[k+2]
					k += 3 // skip "( a b )"
					if a == "PIN" {
						continue // port membership is recorded in PINS
					}
					ii, ok := instIdx[a]
					if !ok {
						return nil, fmt.Errorf("%w: net %s references unknown component %q", ErrBadDEF, net.Name, a)
					}
					master := d.Insts[ii].Master
					pinIdx := -1
					for piX := range master.Pins {
						if master.Pins[piX].Name == b {
							pinIdx = piX
							break
						}
					}
					if pinIdx < 0 {
						return nil, fmt.Errorf("%w: unknown pin %s/%s", ErrBadDEF, master.Name, b)
					}
					conn := netlist.Conn{Inst: ii, Pin: pinIdx}
					if master.Pins[pinIdx].Dir == cells.Output {
						if net.Driver.Inst >= 0 {
							return nil, fmt.Errorf("%w: net %s has a second driver %s/%s", ErrBadDEF, net.Name, a, b)
						}
						net.Driver = conn
					} else {
						net.Sinks = append(net.Sinks, conn)
					}
					d.Insts[ii].PinNets[pinIdx] = ni
				}
			}
		}
	}

	numRows := len(rows)
	if dieW <= 0 || dieH <= 0 || numRows == 0 {
		return nil, fmt.Errorf("%w: missing DIEAREA or ROW statements", ErrBadDEF)
	}
	sites := dieW / t.SiteWidth
	if sites == 0 || sites*int64(numRows) > maxDieSites {
		return nil, fmt.Errorf("%w: die of %d rows x %d sites outside 1..%d sites", ErrBadDEF, numRows, sites, maxDieSites)
	}
	if err := checkRows(rows, dieH, t.RowHeight, sites); err != nil {
		return nil, err
	}

	p := &layout.Placement{
		Tech:     t,
		Design:   d,
		NumSites: int(sites),
		NumRows:  numRows,
		SiteX:    make([]int, len(d.Insts)),
		Row:      make([]int, len(d.Insts)),
		Flip:     make([]bool, len(d.Insts)),
		PortXY:   make([]geom.Point, len(d.Ports)),
	}
	for i, pl := range placed {
		p.SiteX[i] = t.XToSite(pl.x)
		p.Row[i] = t.YToRow(pl.y)
		p.Flip[i] = pl.flip
	}
	for _, pl := range portLocs {
		p.PortXY[pl.idx] = geom.Point{X: pl.x, Y: pl.y}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("%w: parsed design invalid: %w", ErrBadDEF, err)
	}
	if err := p.CheckLegal(); err != nil {
		return nil, fmt.Errorf("%w: parsed placement illegal: %w", ErrBadDEF, err)
	}
	return p, nil
}

// parseDieArea reads a DIEAREA statement's tokens, which must be one
// rectangle ( 0 0 ) ( w h ): placements are stored relative to a die whose
// lower-left corner is the origin, so any other origin is an error.
func parseDieArea(rest []string) (w, h int64, err error) {
	if len(rest) != 8 || rest[0] != "(" || rest[3] != ")" || rest[4] != "(" || rest[7] != ")" {
		return 0, 0, fmt.Errorf("%w: DIEAREA %v is not two points ( x y ) ( x y )", ErrBadDEF, rest)
	}
	var v [4]int64
	for i, tok := range [4]string{rest[1], rest[2], rest[5], rest[6]} {
		if v[i], err = strconv.ParseInt(tok, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("%w: bad DIEAREA coordinate: %w", ErrBadDEF, err)
		}
	}
	if v[0] != 0 || v[1] != 0 {
		return 0, 0, fmt.Errorf("%w: DIEAREA lower-left corner ( %d %d ) is not ( 0 0 )", ErrBadDEF, v[0], v[1])
	}
	return v[2], v[3], nil
}

// checkRows reads the ROW statements' tokens (NAME SITE x y ...): the
// placement numbers rows from y 0 in steps of rowH, so each ROW must start
// at ( 0 y ) with y on that grid inside the die, no two ROWs may share a
// y, and together they must fill the die height exactly. Every row spans
// the die's sites, so a ROW's DO count, when given, must be sites.
func checkRows(rows [][]string, dieH, rowH, sites int64) error {
	byY := make(map[int64]string, len(rows))
	for _, r := range rows {
		if len(r) < 4 {
			return fmt.Errorf("%w: ROW %v is not NAME SITE x y ...", ErrBadDEF, r)
		}
		name := r[0]
		x, errX := strconv.ParseInt(r[2], 10, 64)
		y, errY := strconv.ParseInt(r[3], 10, 64)
		if err := errors.Join(errX, errY); err != nil {
			return fmt.Errorf("%w: ROW %s has a bad origin: %w", ErrBadDEF, name, err)
		}
		if x != 0 || y < 0 || y%rowH != 0 || y > dieH-rowH {
			return fmt.Errorf("%w: ROW %s origin ( %d %d ) is not ( 0 y ) with y a multiple of %d in a die %d high", ErrBadDEF,
				name, x, y, rowH, dieH)
		}
		// A DO count r[k] follows the orientation, r[4].
		if k := 5 + slices.Index(r[4:], "DO"); k > 4 && k < len(r) {
			if n, err := strconv.ParseInt(r[k], 10, 64); err != nil || n != sites {
				return fmt.Errorf("%w: ROW %s has DO %s sites, want the die's %d", ErrBadDEF, name, r[k], sites)
			}
		}
		if prev, dup := byY[y]; dup {
			return fmt.Errorf("%w: ROW %s at y %d repeats ROW %s", ErrBadDEF, name, y, prev)
		}
		byY[y] = name
	}
	if int64(len(rows))*rowH == dieH {
		return nil
	}
	if dieH%rowH != 0 {
		return fmt.Errorf("%w: DIEAREA height %d is not a whole number of %d-DBU rows", ErrBadDEF, dieH, rowH)
	}
	// Some row of the die is missing; the lowest one is at most
	// len(rows) rows up, so this loop is short.
	for y := int64(0); ; y += rowH {
		if _, ok := byY[y]; !ok {
			return fmt.Errorf("%w: no ROW at y %d: ROWs must fill the die height %d", ErrBadDEF, y, dieH)
		}
	}
}

// peekConsume consumes the next token when it equals want.
func (tk *tokenizer) peekConsume(want string) {
	if tk.peek() == want {
		tk.next()
	}
}
