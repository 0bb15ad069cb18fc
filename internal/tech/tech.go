// Package tech defines the synthetic sub-10nm technology used by vm1place:
// database units, the placement site grid, the metal layer stack, via costs
// and the direct-vertical-M1 (dM1) parameters γ and δ from the paper.
//
// The technology is a stand-in for the proprietary imec 7nm libraries used
// in the DAC'17 paper. Its structural properties match what the
// optimization consumes: ClosedM1 cells expose 1-D vertical M1 pins on a
// grid whose pitch equals the placement site width, and OpenM1 cells expose
// horizontal M0 pin segments, so vertical M1 can connect pins whose
// x-extents overlap.
package tech

import "fmt"

// Arch selects the standard-cell architecture, which determines both the
// pin geometry of the library and the MILP formulation used by the
// optimizer (alignment for ClosedM1, overlap for OpenM1).
type Arch int

const (
	// Conventional is a 12-track library with horizontal M1 power rails;
	// M1 is unavailable for inter-row routing (baseline only).
	Conventional Arch = iota
	// ClosedM1 is a 7.5-track library with 1-D vertical M1 pins at site
	// pitch; dM1 requires exact x alignment of the two pins.
	ClosedM1
	// OpenM1 is a 7.5-track library with horizontal M0 pins; dM1 requires
	// horizontal overlap of the two pins' x-extents.
	OpenM1
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case Conventional:
		return "Conventional"
	case ClosedM1:
		return "ClosedM1"
	case OpenM1:
		return "OpenM1"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Layer identifies a metal routing layer. M0 is cell-internal (pins only,
// never used by the router for inter-cell wiring).
type Layer int

const (
	M0 Layer = iota
	M1
	M2
	M3
	M4
	NumLayers
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	if l >= M0 && l < NumLayers {
		return fmt.Sprintf("M%d", int(l))
	}
	return fmt.Sprintf("Layer(%d)", int(l))
}

// Dir is a routing direction.
type Dir int

const (
	Horizontal Dir = iota
	Vertical
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	if d == Horizontal {
		return "H"
	}
	return "V"
}

// Direction returns the preferred routing direction of a layer in this
// stack: M0/M2/M4 horizontal, M1/M3 vertical (matching the paper's cell
// architectures, where M1 is the vertical inter-row layer).
func (l Layer) Direction() Dir {
	if int(l)%2 == 1 {
		return Vertical
	}
	return Horizontal
}

// Tech bundles all technology constants. Construct with Default and adjust
// fields before building libraries or grids; a Tech is immutable once it is
// shared.
type Tech struct {
	// DBUPerMicron is the LEF/DEF database unit: the number of DBU in one
	// micron, written as UNITS DATABASE MICRONS and used to print LEF
	// dimensions in microns. Experiment window sizes do not use it; they
	// go through expt.UmToDBU (DESIGN.md scale note).
	DBUPerMicron int64

	// SiteWidth is the placement site pitch in DBU. The ClosedM1 M1 pin
	// and track pitch equals SiteWidth (paper §1.1), so pin alignment is
	// equivalent to equality of absolute site-granular pin x coordinates.
	SiteWidth int64

	// RowHeight is the placement row pitch in DBU (7.5-track equivalent).
	RowHeight int64

	// Gamma is the maximum vertical span of a direct vertical M1 route in
	// placement rows (paper uses γ = 3).
	Gamma int

	// Delta is the minimum x-overlap, in DBU, required between two OpenM1
	// pins for a direct vertical M1 route (paper's δ).
	Delta int64

	// ViaCost is the routed-wirelength-equivalent cost of one via, in DBU,
	// used by the router's cost function.
	ViaCost int64
}

// Default returns the technology used throughout the reproduction:
// SiteWidth 100 DBU, RowHeight 250 DBU and 1000 DBU per LEF/DEF micron.
// Pitches are compressed against real 7nm so that window MILPs stay
// exactly solvable (DESIGN.md scale note).
func Default() *Tech {
	return &Tech{
		DBUPerMicron: 1000,
		SiteWidth:    100,
		RowHeight:    250,
		Gamma:        3,
		Delta:        50,
		ViaCost:      200,
	}
}

// Default6Track returns the 6-track variant of Default: the same site
// pitch with RowHeight compressed to 200 DBU (6/7.5 of the default 250).
// Shorter rows pack more cells per unit area but leave fewer M0 tracks per
// cell, so pins crowd and dM1 alignment is worth relatively more — the
// track-count sweep (exptables -objsweep) quantifies that.
func Default6Track() *Tech {
	t := Default()
	t.RowHeight = 200
	return t
}

// Default9Track returns the 9-track variant of Default: RowHeight 300 DBU
// (9/7.5 of the default 250). DBUPerMicron grows to 1200 so the row pitch
// still divides a micron exactly (Validate requires it).
func Default9Track() *Tech {
	t := Default()
	t.DBUPerMicron = 1200
	t.RowHeight = 300
	return t
}

// SiteX returns the DBU x coordinate of site index sx.
func (t *Tech) SiteX(sx int) int64 { return int64(sx) * t.SiteWidth }

// RowY returns the DBU y coordinate of row index ry.
func (t *Tech) RowY(ry int) int64 { return int64(ry) * t.RowHeight }

// XToSite returns the site index containing DBU coordinate x (floor).
func (t *Tech) XToSite(x int64) int {
	if x < 0 {
		return int((x - t.SiteWidth + 1) / t.SiteWidth)
	}
	return int(x / t.SiteWidth)
}

// YToRow returns the row index containing DBU coordinate y (floor).
func (t *Tech) YToRow(y int64) int {
	if y < 0 {
		return int((y - t.RowHeight + 1) / t.RowHeight)
	}
	return int(y / t.RowHeight)
}

// Validate checks internal consistency of the technology constants.
func (t *Tech) Validate() error {
	if t.DBUPerMicron <= 0 || t.SiteWidth <= 0 || t.RowHeight <= 0 {
		return fmt.Errorf("tech: non-positive pitch (dbu=%d site=%d row=%d)",
			t.DBUPerMicron, t.SiteWidth, t.RowHeight)
	}
	if t.DBUPerMicron%t.SiteWidth != 0 {
		return fmt.Errorf("tech: DBUPerMicron %d not a multiple of SiteWidth %d",
			t.DBUPerMicron, t.SiteWidth)
	}
	if t.DBUPerMicron%t.RowHeight != 0 {
		return fmt.Errorf("tech: DBUPerMicron %d not a multiple of RowHeight %d",
			t.DBUPerMicron, t.RowHeight)
	}
	if t.Gamma < 1 {
		return fmt.Errorf("tech: gamma %d must be >= 1", t.Gamma)
	}
	if t.Delta < 0 {
		return fmt.Errorf("tech: delta %d must be >= 0", t.Delta)
	}
	return nil
}
