// Package place provides the global placement and legalization stages that
// produce the "input placement" of the DAC'17 flow (the paper uses Cadence
// Innovus; we use a force-directed quadratic-style placer with bin-density
// spreading, followed by a Tetris-style legalizer).
//
// Quality target: enough wirelength-driven locality that the router and the
// vertical-M1 optimizer see realistic structure. The placer is
// deterministic for a given design.
package place

import (
	"fmt"
	"math"
	"sort"

	"vm1place/internal/layout"
	"vm1place/internal/netlist"
)

// Options tunes the global placer.
type Options struct {
	// Iterations of centroid/spreading passes (0: 40).
	Iterations int
	// BinSites/BinRows set the density bin size (0: 16 sites x 4 rows).
	BinSites int
	BinRows  int
	// TargetDensity is the per-bin density ceiling the spreader aims for
	// (0: min(0.95, util + 0.10)).
	TargetDensity float64
}

// Global runs global placement followed by legalization, leaving p legal.
func Global(p *layout.Placement, opt Options) error {
	if opt.Iterations == 0 {
		opt.Iterations = 40
	}
	if opt.BinSites == 0 {
		opt.BinSites = 16
	}
	if opt.BinRows == 0 {
		opt.BinRows = 4
	}
	if opt.TargetDensity == 0 {
		opt.TargetDensity = math.Min(0.95, p.Utilization()+0.10)
	}

	n := len(p.Design.Insts)
	x := make([]float64, n) // cell center x, DBU
	y := make([]float64, n) // cell center y, DBU

	// Initial positions: index order snaked across the die, exploiting the
	// generator's index locality.
	dieW := float64(p.DieWidth())
	dieH := float64(p.DieHeight())
	var totalW float64
	for i := 0; i < n; i++ {
		totalW += float64(p.Design.Insts[i].Master.WidthDBU(p.Tech))
	}
	rowsNeeded := math.Ceil(totalW / dieW)
	perRow := totalW / rowsNeeded
	cx, band := 0.0, 0
	for i := 0; i < n; i++ {
		w := float64(p.Design.Insts[i].Master.WidthDBU(p.Tech))
		if cx+w > perRow && band < int(rowsNeeded)-1 {
			cx = 0
			band++
		}
		x[i] = cx + w/2
		y[i] = (float64(band) + 0.5) / rowsNeeded * dieH
		cx += w
	}

	d := p.Design
	for iter := 0; iter < opt.Iterations; iter++ {
		// Net centroids (including fixed ports).
		nNets := len(d.Nets)
		cxs := make([]float64, nNets)
		cys := make([]float64, nNets)
		cnt := make([]float64, nNets)
		for ni := range d.Nets {
			net := &d.Nets[ni]
			if net.IsClock {
				continue
			}
			net.ForEachConn(func(c netlist.Conn) {
				cxs[ni] += x[c.Inst]
				cys[ni] += y[c.Inst]
				cnt[ni]++
			})
			for _, pi := range net.Ports {
				cxs[ni] += float64(p.PortXY[pi].X)
				cys[ni] += float64(p.PortXY[pi].Y)
				cnt[ni]++
			}
		}

		// Move every cell toward the average centroid of its nets.
		blend := 0.6
		for i := 0; i < n; i++ {
			var sx, sy, k float64
			for _, ni := range d.Insts[i].PinNets {
				if ni < 0 || d.Nets[ni].IsClock || cnt[ni] == 0 {
					continue
				}
				sx += cxs[ni] / cnt[ni]
				sy += cys[ni] / cnt[ni]
				k++
			}
			if k == 0 {
				continue
			}
			x[i] = (1-blend)*x[i] + blend*sx/k
			y[i] = (1-blend)*y[i] + blend*sy/k
		}

		spread(p, x, y, opt)
	}

	return Legalize(p, x, y)
}

// spread pushes cells out of overfull density bins (one diffusion step).
func spread(p *layout.Placement, x, y []float64, opt Options) {
	t := p.Tech
	binW := float64(opt.BinSites) * float64(t.SiteWidth)
	binH := float64(opt.BinRows) * float64(t.RowHeight)
	nbx := int(math.Ceil(float64(p.DieWidth()) / binW))
	nby := int(math.Ceil(float64(p.DieHeight()) / binH))
	if nbx < 1 {
		nbx = 1
	}
	if nby < 1 {
		nby = 1
	}
	dens := make([]float64, nbx*nby)
	cap := binW * binH
	n := len(x)
	dieW := float64(p.DieWidth())
	dieH := float64(p.DieHeight())

	bx := func(v float64) int {
		b := int(v / binW)
		if b < 0 {
			b = 0
		}
		if b >= nbx {
			b = nbx - 1
		}
		return b
	}
	by := func(v float64) int {
		b := int(v / binH)
		if b < 0 {
			b = 0
		}
		if b >= nby {
			b = nby - 1
		}
		return b
	}

	for i := 0; i < n; i++ {
		area := float64(p.Design.Insts[i].Master.WidthDBU(t)) * float64(t.RowHeight)
		dens[by(y[i])*nbx+bx(x[i])] += area / cap
	}

	get := func(ix, iy int) float64 {
		if ix < 0 || ix >= nbx || iy < 0 || iy >= nby {
			return 1.5 // die edges behave as full bins, pushing inward
		}
		return dens[iy*nbx+ix]
	}

	step := 0.35
	for i := 0; i < n; i++ {
		ix, iy := bx(x[i]), by(y[i])
		if get(ix, iy) <= opt.TargetDensity {
			continue
		}
		gx := get(ix-1, iy) - get(ix+1, iy)
		gy := get(ix, iy-1) - get(ix, iy+1)
		x[i] += step * gx * binW
		y[i] += step * gy * binH
		x[i] = math.Max(0, math.Min(dieW-1, x[i]))
		y[i] = math.Max(0, math.Min(dieH-1, y[i]))
	}
}

// Legalize snaps cells at desired centers (x, y in DBU) to a legal
// row/site placement: greedy capacity-aware row assignment followed by
// Abacus-style clumping within each row (optimal left-edge positions for
// the given in-row order). Orientations are reset to unflipped.
func Legalize(p *layout.Placement, x, y []float64) error {
	t := p.Tech
	n := len(p.Design.Insts)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return x[order[a]] < x[order[b]] })

	load := make([]int, p.NumRows) // occupied sites per row
	rowCells := make([][]int, p.NumRows)
	rowCost := float64(t.RowHeight) / float64(t.SiteWidth)

	for _, i := range order {
		w := p.Design.Insts[i].Master.WidthSites
		wantRow := t.YToRow(int64(y[i]))
		bestRow, bestCost := -1, math.Inf(1)
		for r := 0; r < p.NumRows; r++ {
			if load[r]+w > p.NumSites {
				continue
			}
			// Row distance plus a crowding term; x displacement is mostly
			// recovered by clumping, so it is weighted lightly.
			cost := math.Abs(float64(r-wantRow))*rowCost +
				0.3*math.Max(0, float64(load[r]+w)-float64(p.NumSites)*0.9)
			if cost < bestCost {
				bestCost = cost
				bestRow = r
			}
		}
		if bestRow == -1 {
			return fmt.Errorf("place: cannot legalize instance %s (width %d sites)",
				p.Design.Insts[i].Name, w)
		}
		load[bestRow] += w
		rowCells[bestRow] = append(rowCells[bestRow], i)
	}

	for r := 0; r < p.NumRows; r++ {
		clumpRow(p, r, rowCells[r], x)
	}
	return p.CheckLegal()
}

// clumpRow places the given cells (already in desired-x order) in row r,
// minimizing total |site - desired| via the classic clustering recurrence.
func clumpRow(p *layout.Placement, r int, cs []int, x []float64) {
	if len(cs) == 0 {
		return
	}
	t := p.Tech
	cap := p.NumSites
	type cluster struct {
		cells []int
		width int     // total sites
		sumE  float64 // Σ (desired left site - offset within cluster)
		pos   float64 // left site (continuous)
	}
	clampPos := func(c *cluster) {
		c.pos = c.sumE / float64(len(c.cells))
		if c.pos < 0 {
			c.pos = 0
		}
		if c.pos > float64(cap-c.width) {
			c.pos = float64(cap - c.width)
		}
	}
	var stack []*cluster
	for _, i := range cs {
		w := p.Design.Insts[i].Master.WidthSites
		e := x[i]/float64(t.SiteWidth) - float64(w)/2 // desired left site
		cur := &cluster{cells: []int{i}, width: w, sumE: e}
		clampPos(cur)
		for len(stack) > 0 {
			prev := stack[len(stack)-1]
			if prev.pos+float64(prev.width) <= cur.pos {
				break
			}
			// Merge cur into prev: offsets of cur's cells grow by
			// prev.width, so their (e - offset) terms shrink by it.
			prev.sumE += cur.sumE - float64(len(cur.cells))*float64(prev.width)
			prev.cells = append(prev.cells, cur.cells...)
			prev.width += cur.width
			clampPos(prev)
			cur = prev
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, cur)
	}
	// Emit integer sites: a left-to-right pass resolves rounding overlaps,
	// then a right-to-left pass pulls everything back inside the row
	// (always possible since total width fits the row).
	sites := make([]int, len(stack))
	next := 0
	for ci, c := range stack {
		site := int(math.Round(c.pos))
		if site < next {
			site = next
		}
		sites[ci] = site
		next = site + c.width
	}
	limit := cap
	for ci := len(stack) - 1; ci >= 0; ci-- {
		if sites[ci]+stack[ci].width > limit {
			sites[ci] = limit - stack[ci].width
		}
		limit = sites[ci]
	}
	for ci, c := range stack {
		site := sites[ci]
		for _, i := range c.cells {
			w := p.Design.Insts[i].Master.WidthSites
			p.SetLoc(i, site, r, false)
			site += w
		}
	}
}
