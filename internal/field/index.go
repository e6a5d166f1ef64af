package field

import (
	"fmt"
	"math"

	"github.com/groupdetect/gbd/internal/geom"
)

// Index is a uniform-grid spatial index over sensor positions. The
// simulator's hot query is "which sensors are within Rs of this period's
// track segment"; the grid limits the exact distance tests to cells whose
// bounding boxes intersect the inflated segment.
//
// Cell contents live in one flat array (cellIDs, sliced by cellStart) built
// with a counting pass, so a Rebuild on a recycled Index allocates nothing
// once its backing arrays have grown to size. The three int32 arrays share
// one allocation.
type Index struct {
	bounds geom.Rect
	cell   float64
	cols   int
	rows   int
	points []geom.Point
	// cellStart[c]..cellStart[c+1] brackets cell c's ids in cellIDs; ids
	// are ascending within a cell (the counting pass scans points in
	// order), matching the append order the per-cell-slice layout had.
	cellStart []int32
	cellIDs   []int32
	cellOf    []int32 // per-point cell, cached between Rebuild's two passes
	grid      []int32 // backing of cellStart, cellIDs and cellOf
}

// NewIndex builds an index over points with the given cell size. Points
// outside bounds are clamped into the border cells (deployments generated
// by this package are always inside).
func NewIndex(points []geom.Point, bounds geom.Rect, cellSize float64) (*Index, error) {
	idx := &Index{}
	if err := idx.Rebuild(points, bounds, cellSize); err != nil {
		return nil, err
	}
	return idx, nil
}

// CellSize picks an index cell on the order of the sensing range rs,
// bounded below by side/256 so tiny ranges in huge fields do not explode
// the cell count.
func CellSize(rs, side float64) float64 {
	return math.Max(rs, side/256)
}

// checkGrid validates Rebuild's grid parameters.
func checkGrid(bounds geom.Rect, cellSize float64) error {
	if bounds.Area() <= 0 {
		return fmt.Errorf("empty bounds %+v: %w", bounds, ErrDeploy)
	}
	if cellSize <= 0 || math.IsNaN(cellSize) {
		return fmt.Errorf("cell size %v: %w", cellSize, ErrDeploy)
	}
	return nil
}

// Rebuild re-indexes the index over a new deployment in place, reusing the
// existing backing arrays. It leaves the index unchanged on error. Pass a
// recycled Index through a simulation loop to keep indexing off the heap.
func (idx *Index) Rebuild(points []geom.Point, bounds geom.Rect, cellSize float64) error {
	if err := checkGrid(bounds, cellSize); err != nil {
		return err
	}
	idx.points = append(idx.points[:0], points...)
	idx.reindex(bounds, cellSize)
	return nil
}

// RebuildXY is Rebuild over a deployment stored as parallel coordinate
// slices — the simulator's batch engine fills structure-of-arrays
// coordinate buffers and indexes each trial's slice pair without
// materializing a []geom.Point.
func (idx *Index) RebuildXY(xs, ys []float64, bounds geom.Rect, cellSize float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("coordinate slices disagree: %d xs, %d ys: %w", len(xs), len(ys), ErrDeploy)
	}
	if err := checkGrid(bounds, cellSize); err != nil {
		return err
	}
	pts := idx.points[:0]
	if cap(pts) < len(xs) {
		pts = make([]geom.Point, 0, len(xs))
	}
	for i, x := range xs {
		pts = append(pts, geom.Point{X: x, Y: ys[i]})
	}
	idx.points = pts
	idx.reindex(bounds, cellSize)
	return nil
}

// reindex rebuilds the grid over idx.points; callers have validated the
// grid parameters.
func (idx *Index) reindex(bounds geom.Rect, cellSize float64) {
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	cols := int(math.Ceil(w / cellSize))
	rows := int(math.Ceil(h / cellSize))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	idx.bounds = bounds
	idx.cell = cellSize
	idx.cols = cols
	idx.rows = rows
	points := idx.points

	nCells := cols * rows
	ids := nCells + 1 + len(points)
	if need := ids + len(points); cap(idx.grid) < need {
		idx.grid = make([]int32, need)
	} else {
		idx.grid = idx.grid[:need]
	}
	idx.cellStart = idx.grid[: nCells+1 : nCells+1]
	clear(idx.cellStart)
	idx.cellIDs = idx.grid[nCells+1 : ids : ids]
	idx.cellOf = idx.grid[ids:]
	// Counting sort: count per cell, prefix-sum into start offsets, then
	// place ids using cellStart[c] as the fill cursor. After the fill every
	// cursor sits at its cell's end, i.e. the next cell's start, so one
	// backward shift restores the offsets.
	for i, p := range idx.points {
		c := idx.cellIndex(p)
		idx.cellOf[i] = int32(c)
		idx.cellStart[c+1]++
	}
	for c := 0; c < nCells; c++ {
		idx.cellStart[c+1] += idx.cellStart[c]
	}
	for i := range idx.points {
		c := idx.cellOf[i]
		idx.cellIDs[idx.cellStart[c]] = int32(i)
		idx.cellStart[c]++
	}
	copy(idx.cellStart[1:], idx.cellStart[:nCells]) // memmove does the backward shift
	idx.cellStart[0] = 0
}

// Len returns the number of indexed points.
func (idx *Index) Len() int { return len(idx.points) }

// Point returns the indexed point with the given id.
func (idx *Index) Point(id int) geom.Point { return idx.points[id] }

func (idx *Index) colOf(x float64) int {
	c := int((x - idx.bounds.MinX) / idx.cell)
	if c < 0 {
		return 0
	}
	if c >= idx.cols {
		return idx.cols - 1
	}
	return c
}

func (idx *Index) rowOf(y float64) int {
	r := int((y - idx.bounds.MinY) / idx.cell)
	if r < 0 {
		return 0
	}
	if r >= idx.rows {
		return idx.rows - 1
	}
	return r
}

func (idx *Index) cellIndex(p geom.Point) int {
	return idx.rowOf(p.Y)*idx.cols + idx.colOf(p.X)
}

// QuerySegment appends to dst the ids of all points within distance r of
// segment s and returns the extended slice. Pass a reused dst to avoid
// allocation in the simulation loop.
func (idx *Index) QuerySegment(s geom.Segment, r float64, dst []int) []int {
	if r < 0 {
		return dst
	}
	minX := math.Min(s.A.X, s.B.X) - r
	maxX := math.Max(s.A.X, s.B.X) + r
	minY := math.Min(s.A.Y, s.B.Y) - r
	maxY := math.Max(s.A.Y, s.B.Y) + r
	c0, c1 := idx.colOf(minX), idx.colOf(maxX)
	r0, r1 := idx.rowOf(minY), idx.rowOf(maxY)
	r2 := r * r
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			c := row*idx.cols + col
			for _, id := range idx.cellIDs[idx.cellStart[c]:idx.cellStart[c+1]] {
				if s.Dist2(idx.points[id]) <= r2 {
					dst = append(dst, int(id))
				}
			}
		}
	}
	return dst
}

// Pairs appends to dst every unordered pair {i, j} of distinct indexed
// points within distance r of each other, testing each pair once. Pairs are
// emitted in lexicographic order of the points' positions in the index's
// flattened cell-scan order, and each pair is oriented the same way: this
// is exactly the guarantee a caller needs to rebuild per-point neighbor
// lists that match a QueryCircle per point (QueryCircle reports neighbors
// in ascending cell-scan position, and a single in-order sweep over the
// pair stream appends each point's partners in that same order). The
// distance predicate is bitwise-identical to QueryCircle's in both
// orientations, because Dist2 squares the coordinate differences.
func (idx *Index) Pairs(r float64, dst [][2]int32) [][2]int32 {
	if r < 0 {
		return dst
	}
	r2 := r * r
	for a, i := range idx.cellIDs {
		p := idx.points[i]
		c0, c1 := idx.colOf(p.X-r), idx.colOf(p.X+r)
		r0, r1 := idx.rowOf(p.Y-r), idx.rowOf(p.Y+r)
		for row := r0; row <= r1; row++ {
			for col := c0; col <= c1; col++ {
				c := row*idx.cols + col
				// Positions ascend with cell id, so clamping the cell's
				// range to positions after a skips whole earlier cells and
				// the already-tested prefix of i's own cell.
				b, hi := idx.cellStart[c], idx.cellStart[c+1]
				if s := int32(a) + 1; b < s {
					b = s
				}
				for ; b < hi; b++ {
					j := idx.cellIDs[b]
					if p.Dist2(idx.points[j]) <= r2 {
						dst = append(dst, [2]int32{i, j})
					}
				}
			}
		}
	}
	return dst
}

// QueryCircle appends to dst the ids of all points within distance r of
// center and returns the extended slice. It visits the same cells in the
// same order as QuerySegment with a degenerate segment and applies the
// bitwise-identical distance predicate, just without the per-point
// closest-point-on-segment work.
func (idx *Index) QueryCircle(center geom.Point, r float64, dst []int) []int {
	if r < 0 {
		return dst
	}
	c0, c1 := idx.colOf(center.X-r), idx.colOf(center.X+r)
	r0, r1 := idx.rowOf(center.Y-r), idx.rowOf(center.Y+r)
	r2 := r * r
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			c := row*idx.cols + col
			for _, id := range idx.cellIDs[idx.cellStart[c]:idx.cellStart[c+1]] {
				if center.Dist2(idx.points[id]) <= r2 {
					dst = append(dst, int(id))
				}
			}
		}
	}
	return dst
}
