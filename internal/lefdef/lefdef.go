// Package lefdef reads and writes the subset of LEF/DEF 5.7 that vm1place
// uses to exchange libraries and placed designs — the role OpenAccess +
// LEF/DEF play in the paper's flow. The writer emits exactly the subset
// the parser accepts, and round-tripping a placement is lossless for
// everything the optimizer consumes (cell geometry, pin shapes, locations,
// orientations, connectivity, ports).
package lefdef

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"

	"vm1place/internal/cells"
	"vm1place/internal/geom"
	"vm1place/internal/layout"
	"vm1place/internal/netlist"
	"vm1place/internal/tech"
)

// ErrBadLEF and ErrBadDEF report malformed input: every error ParseLEF
// returns wraps ErrBadLEF and every error ParseDEF returns wraps ErrBadDEF,
// so callers can errors.Is against them. A read error ends the input
// early; it has no error of its own.
var (
	ErrBadLEF = errors.New("lefdef: bad LEF")
	ErrBadDEF = errors.New("lefdef: bad DEF")
)

// WriteLEF emits the library as LEF: site, layers and one MACRO per
// master with PORT rectangles in µm.
func WriteLEF(w io.Writer, lib *cells.Library) error {
	t := lib.Tech
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VERSION 5.7 ;\nBUSBITCHARS \"[]\" ;\nDIVIDERCHAR \"/\" ;\n")
	fmt.Fprintf(bw, "UNITS\n  DATABASE MICRONS %d ;\nEND UNITS\n\n", t.DBUPerMicron)
	fmt.Fprintf(bw, "SITE coreSite\n  CLASS CORE ;\n  SIZE %s BY %s ;\nEND coreSite\n\n",
		umStr(t, t.SiteWidth), umStr(t, t.RowHeight))
	for _, m := range lib.Masters {
		fmt.Fprintf(bw, "MACRO %s\n", m.Name)
		fmt.Fprintf(bw, "  CLASS CORE ;\n  ORIGIN 0 0 ;\n")
		fmt.Fprintf(bw, "  SIZE %s BY %s ;\n", umStr(t, m.WidthDBU(t)), umStr(t, t.RowHeight))
		fmt.Fprintf(bw, "  SITE coreSite ;\n")
		for pi := range m.Pins {
			p := &m.Pins[pi]
			fmt.Fprintf(bw, "  PIN %s\n    DIRECTION %s ;\n    USE %s ;\n    PORT\n",
				p.Name, lefDir(p.Dir), lefUse(p.Dir))
			for _, sh := range p.Shapes {
				fmt.Fprintf(bw, "      LAYER %s ;\n        RECT %s %s %s %s ;\n",
					sh.Layer,
					umStr(t, sh.Rect.XLo), umStr(t, sh.Rect.YLo),
					umStr(t, sh.Rect.XHi), umStr(t, sh.Rect.YHi))
			}
			fmt.Fprintf(bw, "    END\n  END %s\n", p.Name)
		}
		fmt.Fprintf(bw, "END %s\n\n", m.Name)
	}
	fmt.Fprintf(bw, "END LIBRARY\n")
	return bw.Flush()
}

func lefDir(d cells.PinDir) string {
	switch d {
	case cells.Input:
		return "INPUT"
	case cells.Output:
		return "OUTPUT"
	default:
		return "INOUT"
	}
}

func lefUse(d cells.PinDir) string {
	switch d {
	case cells.Power:
		return "POWER"
	case cells.Ground:
		return "GROUND"
	default:
		return "SIGNAL"
	}
}

func umStr(t *tech.Tech, dbu int64) string {
	return strconv.FormatFloat(float64(dbu)/float64(t.DBUPerMicron), 'f', -1, 64)
}

// WriteDEF emits the placed design as DEF (DBU coordinates).
func WriteDEF(w io.Writer, p *layout.Placement) error {
	t := p.Tech
	d := p.Design
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VERSION 5.7 ;\nDIVIDERCHAR \"/\" ;\nBUSBITCHARS \"[]\" ;\n")
	fmt.Fprintf(bw, "DESIGN %s ;\n", d.Name)
	fmt.Fprintf(bw, "UNITS DISTANCE MICRONS %d ;\n", t.DBUPerMicron)
	fmt.Fprintf(bw, "DIEAREA ( 0 0 ) ( %d %d ) ;\n", p.DieWidth(), p.DieHeight())
	for r := 0; r < p.NumRows; r++ {
		orient := "N"
		if r%2 == 1 {
			orient = "FS"
		}
		fmt.Fprintf(bw, "ROW row_%d coreSite 0 %d %s DO %d BY 1 STEP %d 0 ;\n",
			r, t.RowY(r), orient, p.NumSites, t.SiteWidth)
	}

	fmt.Fprintf(bw, "COMPONENTS %d ;\n", len(d.Insts))
	for i := range d.Insts {
		orient := "N"
		if p.Flip[i] {
			orient = "FN"
		}
		fmt.Fprintf(bw, "- %s %s + PLACED ( %d %d ) %s ;\n",
			d.Insts[i].Name, d.Insts[i].Master.Name, p.InstX(i), p.InstY(i), orient)
	}
	fmt.Fprintf(bw, "END COMPONENTS\n")

	fmt.Fprintf(bw, "PINS %d ;\n", len(d.Ports))
	for pi := range d.Ports {
		pt := &d.Ports[pi]
		dir := "OUTPUT"
		if pt.Input {
			dir = "INPUT"
		}
		fmt.Fprintf(bw, "- %s + NET %s + DIRECTION %s + FIXED ( %d %d ) N ;\n",
			pt.Name, d.Nets[pt.Net].Name, dir, p.PortXY[pi].X, p.PortXY[pi].Y)
	}
	fmt.Fprintf(bw, "END PINS\n")

	fmt.Fprintf(bw, "NETS %d ;\n", len(d.Nets))
	for ni := range d.Nets {
		n := &d.Nets[ni]
		fmt.Fprintf(bw, "- %s", n.Name)
		n.ForEachConn(func(c netlist.Conn) {
			inst := &d.Insts[c.Inst]
			fmt.Fprintf(bw, " ( %s %s )", inst.Name, inst.Master.Pins[c.Pin].Name)
		})
		for _, pi := range n.Ports {
			fmt.Fprintf(bw, " ( PIN %s )", d.Ports[pi].Name)
		}
		if n.IsClock {
			fmt.Fprintf(bw, " + USE CLOCK")
		}
		fmt.Fprintf(bw, " ;\n")
	}
	fmt.Fprintf(bw, "END NETS\nEND DESIGN\n")
	return bw.Flush()
}

// tokenizer splits LEF/DEF into whitespace-separated tokens, treating
// parentheses as separate tokens. It reads byte-wise off a bufio.Reader,
// so memory is O(longest token) regardless of line length — DEF writers
// (ours included) put an entire net on one line, and a large design's
// clock net makes that line arbitrarily long, which is why the previous
// line-based Scanner (1 MiB line cap) could not stream big DEFs.
type tokenizer struct {
	r       *bufio.Reader
	tok     []byte   // reused accumulation buffer for the current token
	pending []string // peeked tokens pushed back, consumed LIFO
}

func newTokenizer(r io.Reader) *tokenizer {
	return &tokenizer{r: bufio.NewReaderSize(r, 64*1024)}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// next returns the next token, or "" at EOF (or on a read error, which
// the statement parsers then surface as a truncated/invalid input).
func (tk *tokenizer) next() string {
	if n := len(tk.pending); n > 0 {
		t := tk.pending[n-1]
		tk.pending = tk.pending[:n-1]
		return t
	}
	for {
		c, err := tk.r.ReadByte()
		if err != nil {
			return ""
		}
		if isSpace(c) {
			continue
		}
		if c == '(' {
			return "("
		}
		if c == ')' {
			return ")"
		}
		tk.tok = append(tk.tok[:0], c)
		for {
			c, err := tk.r.ReadByte()
			if err != nil {
				break
			}
			if isSpace(c) {
				break
			}
			if c == '(' || c == ')' {
				// Parens bind to no token; leave it for the next call.
				if uerr := tk.r.UnreadByte(); uerr != nil {
					panic(uerr) // panic-ok: UnreadByte cannot fail right after a successful ReadByte
				}
				break
			}
			tk.tok = append(tk.tok, c)
		}
		return string(tk.tok)
	}
}

// peek returns the next token without consuming it.
func (tk *tokenizer) peek() string {
	t := tk.next()
	if t != "" {
		tk.pending = append(tk.pending, t)
	}
	return t
}

// until consumes tokens through the next ";" and returns them (without the
// semicolon).
func (tk *tokenizer) until() []string {
	var out []string
	for {
		t := tk.next()
		if t == "" || t == ";" {
			return out
		}
		out = append(out, t)
	}
}

// ParseLEF reads a library in the subset written by WriteLEF. Malformed
// input is an error wrapping ErrBadLEF.
func ParseLEF(r io.Reader, t *tech.Tech) (*cells.Library, error) {
	tk := newTokenizer(r)
	dbu := float64(t.DBUPerMicron)
	toDBU := func(s string) (int64, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, err
		}
		if v < 0 {
			return int64(v*dbu - 0.5), nil
		}
		return int64(v*dbu + 0.5), nil
	}

	var masters []*cells.Master
	var cur *cells.Master
	curPin := -1
	arch := tech.ClosedM1
	archSet := false
	for {
		tok := tk.next()
		if tok == "" {
			break
		}
		switch tok {
		case "MACRO":
			cur = &cells.Master{Name: tk.next()}
			masters = append(masters, cur)
			curPin = -1
		case "SIZE":
			rest := tk.until() // w BY h
			if cur != nil && len(rest) >= 1 {
				wdbu, err := toDBU(rest[0])
				if err != nil {
					return nil, fmt.Errorf("%w: bad SIZE %q: %w", ErrBadLEF, rest[0], err)
				}
				cur.WidthSites = int(wdbu / t.SiteWidth)
			}
			if cur != nil && len(rest) >= 3 {
				hdbu, err := toDBU(rest[2])
				if err != nil {
					return nil, fmt.Errorf("%w: bad SIZE height %q: %w", ErrBadLEF, rest[2], err)
				}
				// Rows covered, rounded up: library validation rejects
				// multi-height masters instead of letting the floorplan
				// overlap them.
				cur.HeightRows = int((hdbu + t.RowHeight - 1) / t.RowHeight)
			}
		case "PIN":
			if cur != nil {
				cur.Pins = append(cur.Pins, cells.Pin{Name: tk.next()})
				curPin = len(cur.Pins) - 1
			}
		case "DIRECTION":
			rest := tk.until()
			if cur != nil && curPin >= 0 && len(rest) > 0 {
				switch rest[0] {
				case "INPUT":
					cur.Pins[curPin].Dir = cells.Input
				case "OUTPUT":
					cur.Pins[curPin].Dir = cells.Output
				}
			}
		case "USE":
			rest := tk.until()
			if cur != nil && curPin >= 0 && len(rest) > 0 {
				switch rest[0] {
				case "POWER":
					cur.Pins[curPin].Dir = cells.Power
				case "GROUND":
					cur.Pins[curPin].Dir = cells.Ground
				}
			}
		case "LAYER":
			rest := tk.until()
			if cur == nil || curPin < 0 || len(rest) == 0 {
				continue
			}
			layer, err := parseLayer(rest[0])
			if err != nil {
				return nil, err
			}
			if tok2 := tk.next(); tok2 != "RECT" {
				return nil, fmt.Errorf("%w: expected RECT after LAYER, got %q", ErrBadLEF, tok2)
			}
			coords := tk.until()
			if len(coords) != 4 {
				return nil, fmt.Errorf("%w: RECT wants 4 coords, got %d", ErrBadLEF, len(coords))
			}
			var v [4]int64
			for i, c := range coords {
				x, err := toDBU(c)
				if err != nil {
					return nil, fmt.Errorf("%w: bad RECT coord %q: %w", ErrBadLEF, c, err)
				}
				v[i] = x
			}
			pin := &cur.Pins[curPin]
			pin.Shapes = append(pin.Shapes, cells.Shape{
				Layer: layer,
				Rect:  geom.Rect{XLo: v[0], YLo: v[1], XHi: v[2], YHi: v[3]},
			})
			if pin.IsSignal() && !archSet {
				arch = shapeArch(layer, v[2]-v[0], v[3]-v[1])
				archSet = true
			}
		case "END":
			// Scope closers: "END <macro>", "END <pin>", "END LIBRARY",
			// or a bare PORT "END". Only consume the name when it closes
			// a known scope.
			nxt := tk.peek()
			switch {
			case cur != nil && nxt == cur.Name:
				tk.next()
				cur = nil
				curPin = -1
			case cur != nil && curPin >= 0 && nxt == cur.Pins[curPin].Name:
				tk.next()
				curPin = -1
			case nxt == "LIBRARY" || nxt == "UNITS" || nxt == "coreSite":
				tk.next()
			}
		}
	}
	for _, m := range masters {
		m.Arch = arch
	}
	lib, err := cells.NewLibraryFromMasters(t, arch, masters)
	if err != nil {
		return nil, fmt.Errorf("%w: parsed library: %w", ErrBadLEF, err)
	}
	return lib, nil
}

// shapeArch names the cell architecture a library's first signal pin
// shape implies: M0 pins are OpenM1's, M1 pins wider than tall are
// Conventional's horizontal pins (as are M2 pins), and the vertical M1 pins
// that remain are ClosedM1's.
func shapeArch(layer tech.Layer, w, h int64) tech.Arch {
	switch {
	case layer == tech.M0:
		return tech.OpenM1
	case layer == tech.M2, layer == tech.M1 && w > h:
		return tech.Conventional
	}
	return tech.ClosedM1
}

func parseLayer(s string) (tech.Layer, error) {
	switch s {
	case "M0":
		return tech.M0, nil
	case "M1":
		return tech.M1, nil
	case "M2":
		return tech.M2, nil
	case "M3":
		return tech.M3, nil
	case "M4":
		return tech.M4, nil
	}
	return 0, fmt.Errorf("%w: unknown layer %q", ErrBadLEF, s)
}
