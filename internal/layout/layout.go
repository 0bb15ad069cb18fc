// Package layout is the placement database of vm1place: a row/site
// floorplan, per-instance locations and orientations, port locations,
// occupancy-based legality checking and HPWL evaluation.
//
// Coordinates are DBU. Instances sit on row boundaries (y = row *
// RowHeight) and site boundaries (x = site * SiteWidth), matching the
// paper's site-granular SCP placement model. Orientation is the horizontal
// flip f_c of the paper.
package layout

import (
	"errors"
	"fmt"
	"math"

	"vm1place/internal/cells"
	"vm1place/internal/geom"
	"vm1place/internal/netlist"
	"vm1place/internal/tech"
)

// ErrBadUtilization reports a floorplan utilization outside (0, 1].
// NewFloorplan wraps it, so callers can errors.Is against it.
var ErrBadUtilization = errors.New("layout: utilization out of (0,1]")

// Placement binds a design to a floorplan and holds the current location of
// every instance.
type Placement struct {
	Tech   *tech.Tech
	Design *netlist.Design

	// Die dimensions in sites and rows.
	NumSites int
	NumRows  int

	// Per-instance state, indexed like Design.Insts.
	SiteX []int  // leftmost occupied site
	Row   []int  // row index
	Flip  []bool // horizontal mirror (paper's f_c)

	// PortXY are resolved port locations, indexed like Design.Ports.
	PortXY []geom.Point
}

// NewFloorplan creates an unplaced Placement whose die accommodates the
// design at the given utilization with a near-square aspect ratio. All
// instances start at site 0, row 0 (call a placer or SpreadEven next). A
// utilization outside (0, 1] is reported as an error wrapping
// ErrBadUtilization.
func NewFloorplan(t *tech.Tech, d *netlist.Design, util float64) (*Placement, error) {
	if util <= 0 || util > 1 {
		return nil, fmt.Errorf("%w: %f", ErrBadUtilization, util)
	}
	var totalSites int64
	for i := range d.Insts {
		totalSites += int64(d.Insts[i].Master.WidthSites)
	}
	need := float64(totalSites) / util
	// Square die in DBU: numSites*SiteWidth == numRows*RowHeight.
	ratio := float64(t.RowHeight) / float64(t.SiteWidth)
	numRows := int(math.Ceil(math.Sqrt(need / ratio)))
	if numRows < 1 {
		numRows = 1
	}
	numSites := int(math.Ceil(need / float64(numRows)))
	// Ensure the widest cell fits.
	for i := range d.Insts {
		if w := d.Insts[i].Master.WidthSites; w > numSites {
			numSites = w
		}
	}
	p := &Placement{
		Tech:     t,
		Design:   d,
		NumSites: numSites,
		NumRows:  numRows,
		SiteX:    make([]int, len(d.Insts)),
		Row:      make([]int, len(d.Insts)),
		Flip:     make([]bool, len(d.Insts)),
	}
	p.resolvePorts()
	return p, nil
}

// MustNewFloorplan is NewFloorplan panicking on error; for tests and
// examples where the utilization is a compile-time constant.
func MustNewFloorplan(t *tech.Tech, d *netlist.Design, util float64) *Placement {
	p, err := NewFloorplan(t, d, util)
	if err != nil {
		panic(err) // panic-ok: Must* wrapper
	}
	return p
}

// resolvePorts turns side+fraction port specs into DBU boundary points.
func (p *Placement) resolvePorts() {
	w := p.DieWidth()
	h := p.DieHeight()
	p.PortXY = make([]geom.Point, len(p.Design.Ports))
	for i, pt := range p.Design.Ports {
		switch pt.Side {
		case netlist.West:
			p.PortXY[i] = geom.Point{X: 0, Y: int64(pt.Pos * float64(h))}
		case netlist.East:
			p.PortXY[i] = geom.Point{X: w, Y: int64(pt.Pos * float64(h))}
		case netlist.North:
			p.PortXY[i] = geom.Point{X: int64(pt.Pos * float64(w)), Y: h}
		default:
			p.PortXY[i] = geom.Point{X: int64(pt.Pos * float64(w)), Y: 0}
		}
	}
}

// DieWidth returns the die width in DBU.
func (p *Placement) DieWidth() int64 { return int64(p.NumSites) * p.Tech.SiteWidth }

// DieHeight returns the die height in DBU.
func (p *Placement) DieHeight() int64 { return int64(p.NumRows) * p.Tech.RowHeight }

// DieRect returns the die as a rectangle.
func (p *Placement) DieRect() geom.Rect {
	return geom.Rect{XLo: 0, YLo: 0, XHi: p.DieWidth(), YHi: p.DieHeight()}
}

// Utilization returns placed cell area over die area.
func (p *Placement) Utilization() float64 {
	var totalSites int64
	for i := range p.Design.Insts {
		totalSites += int64(p.Design.Insts[i].Master.WidthSites)
	}
	return float64(totalSites) / float64(int64(p.NumSites)*int64(p.NumRows))
}

// InstX returns the DBU x of instance i's lower-left corner.
func (p *Placement) InstX(i int) int64 { return p.Tech.SiteX(p.SiteX[i]) }

// InstY returns the DBU y of instance i's lower-left corner.
func (p *Placement) InstY(i int) int64 { return p.Tech.RowY(p.Row[i]) }

// InstRect returns the occupied rectangle of instance i.
func (p *Placement) InstRect(i int) geom.Rect {
	m := p.Design.Insts[i].Master
	x := p.InstX(i)
	y := p.InstY(i)
	return geom.Rect{XLo: x, YLo: y, XHi: x + m.WidthDBU(p.Tech), YHi: y + p.Tech.RowHeight}
}

// SetLoc places instance i at (site, row) with the given flip. It performs
// no legality checking; use CheckLegal or an Occupancy.
func (p *Placement) SetLoc(i, site, row int, flip bool) {
	p.SiteX[i] = site
	p.Row[i] = row
	p.Flip[i] = flip
}

// PinShape returns the absolute access shape of a connection's pin.
func (p *Placement) PinShape(c netlist.Conn) cells.Shape {
	inst := &p.Design.Insts[c.Inst]
	return cells.AbsShape(inst.Master, p.Tech, &inst.Master.Pins[c.Pin],
		p.InstX(c.Inst), p.InstY(c.Inst), p.Flip[c.Inst])
}

// PinPos returns the absolute center point of a connection's pin — the
// (x_c+x_p, y_c+y_p) coordinate of the paper's MILP.
func (p *Placement) PinPos(c netlist.Conn) geom.Point {
	s := p.PinShape(c)
	return geom.Point{X: (s.Rect.XLo + s.Rect.XHi) / 2, Y: (s.Rect.YLo + s.Rect.YHi) / 2}
}

// NetBBox accumulates the bounding box of a net over instance pins and
// ports. Returns an invalid box for nets with no endpoints.
func (p *Placement) NetBBox(ni int) geom.BBox {
	var b geom.BBox
	n := &p.Design.Nets[ni]
	n.ForEachConn(func(c netlist.Conn) { b.Add(p.PinPos(c)) })
	for _, pi := range n.Ports {
		b.Add(p.PortXY[pi])
	}
	return b
}

// NetHPWL returns the half-perimeter wirelength of net ni.
func (p *Placement) NetHPWL(ni int) int64 {
	b := p.NetBBox(ni)
	return b.HalfPerim()
}

// TotalHPWL returns the summed HPWL of all non-clock nets.
func (p *Placement) TotalHPWL() int64 {
	var sum int64
	for ni := range p.Design.Nets {
		if p.Design.Nets[ni].IsClock {
			continue
		}
		sum += p.NetHPWL(ni)
	}
	return sum
}

// Clone returns a deep copy sharing the immutable design/tech.
func (p *Placement) Clone() *Placement {
	q := *p
	q.SiteX = append([]int(nil), p.SiteX...)
	q.Row = append([]int(nil), p.Row...)
	q.Flip = append([]bool(nil), p.Flip...)
	q.PortXY = append([]geom.Point(nil), p.PortXY...)
	return &q
}

// CopyFrom copies the mutable placement state of src (same design) into p.
func (p *Placement) CopyFrom(src *Placement) {
	copy(p.SiteX, src.SiteX)
	copy(p.Row, src.Row)
	copy(p.Flip, src.Flip)
}

// SpreadEven places instances left-to-right, row by row, in index order —
// a trivial legal placement used by tests and as a placer fallback.
func (p *Placement) SpreadEven() {
	site, row := 0, 0
	for i := range p.Design.Insts {
		w := p.Design.Insts[i].Master.WidthSites
		if site+w > p.NumSites {
			site = 0
			row++
			if row >= p.NumRows {
				// NewFloorplan sizes the die to hold the design at any legal
				// utilization, so overflow here is a corrupted placement.
				panic("layout: SpreadEven overflowed die") // panic-ok: invariant
			}
		}
		p.SetLoc(i, site, row, false)
		site += w
	}
}

// CheckLegal verifies the placement: every instance inside the die and no
// two instances overlapping. Returns nil if legal.
func (p *Placement) CheckLegal() error {
	occ := NewOccupancy(p)
	for i := range p.Design.Insts {
		if err := occ.Place(i); err != nil {
			return err
		}
	}
	return nil
}

// Occupancy is a site-granular occupancy grid for incremental legality
// checking. Sites hold the occupying instance index, or -1.
type Occupancy struct {
	p     *Placement
	sites []int32 // NumRows * NumSites
}

// NewOccupancy returns an empty occupancy grid for p.
func NewOccupancy(p *Placement) *Occupancy {
	o := &Occupancy{p: p, sites: make([]int32, p.NumRows*p.NumSites)}
	for i := range o.sites {
		o.sites[i] = -1
	}
	return o
}

func (o *Occupancy) idx(row, site int) int { return row*o.p.NumSites + site }

// At returns the instance occupying (row, site), or -1.
func (o *Occupancy) At(row, site int) int { return int(o.sites[o.idx(row, site)]) }

// Place marks instance i's sites occupied, failing if any is outside the
// die or already taken.
func (o *Occupancy) Place(i int) error {
	p := o.p
	w := p.Design.Insts[i].Master.WidthSites
	row, site := p.Row[i], p.SiteX[i]
	if row < 0 || row >= p.NumRows || site < 0 || site+w > p.NumSites {
		return fmt.Errorf("layout: inst %s at row %d site %d width %d outside die (%d rows x %d sites)",
			p.Design.Insts[i].Name, row, site, w, p.NumRows, p.NumSites)
	}
	for s := site; s < site+w; s++ {
		if got := o.sites[o.idx(row, s)]; got != -1 {
			return fmt.Errorf("layout: inst %s overlaps inst %s at row %d site %d",
				p.Design.Insts[i].Name, p.Design.Insts[got].Name, row, s)
		}
	}
	for s := site; s < site+w; s++ {
		o.sites[o.idx(row, s)] = int32(i)
	}
	return nil
}

// Remove clears instance i's sites (must currently be placed there).
func (o *Occupancy) Remove(i int) {
	p := o.p
	w := p.Design.Insts[i].Master.WidthSites
	row, site := p.Row[i], p.SiteX[i]
	for s := site; s < site+w; s++ {
		if o.sites[o.idx(row, s)] == int32(i) {
			o.sites[o.idx(row, s)] = -1
		}
	}
}

// FreeRun reports whether sites [site, site+w) in row are all free or
// occupied only by instance ignore (pass -1 to ignore nothing).
func (o *Occupancy) FreeRun(row, site, w, ignore int) bool {
	p := o.p
	if row < 0 || row >= p.NumRows || site < 0 || site+w > p.NumSites {
		return false
	}
	for s := site; s < site+w; s++ {
		got := o.sites[o.idx(row, s)]
		if got != -1 && got != int32(ignore) {
			return false
		}
	}
	return true
}
