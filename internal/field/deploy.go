package field

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/groupdetect/gbd/internal/geom"
)

// ErrDeploy reports invalid deployment arguments.
var ErrDeploy = errors.New("field: invalid deployment")

// Uniform places n sensors independently and uniformly at random in bounds —
// the deployment model the paper assumes (Section 2).
func Uniform(n int, bounds geom.Rect, rng *rand.Rand) ([]geom.Point, error) {
	return AppendUniform(make([]geom.Point, 0, max(n, 0)), n, bounds, rng)
}

// AppendUniform is Uniform appending the n sensors to dst (grown as
// needed), so a simulation loop can redeploy, class after class, without
// allocating. The draws are identical to Uniform's: X then Y per sensor.
func AppendUniform(dst []geom.Point, n int, bounds geom.Rect, rng *rand.Rand) ([]geom.Point, error) {
	if n < 0 {
		return nil, fmt.Errorf("n = %d: %w", n, ErrDeploy)
	}
	if bounds.Area() <= 0 {
		return nil, fmt.Errorf("empty bounds %+v: %w", bounds, ErrDeploy)
	}
	off := len(dst)
	dst = slices.Grow(dst, n)[:off+n]
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	for i := off; i < len(dst); i++ {
		dst[i] = geom.Point{
			X: bounds.MinX + rng.Float64()*w,
			Y: bounds.MinY + rng.Float64()*h,
		}
	}
	return dst, nil
}

// Grid places n sensors on the most-square grid that fits bounds, row-major,
// centered in their cells. Used as a deterministic contrast deployment in
// examples and coverage studies.
func Grid(n int, bounds geom.Rect) ([]geom.Point, error) {
	if n < 0 {
		return nil, fmt.Errorf("n = %d: %w", n, ErrDeploy)
	}
	if bounds.Area() <= 0 {
		return nil, fmt.Errorf("empty bounds %+v: %w", bounds, ErrDeploy)
	}
	if n == 0 {
		return nil, nil
	}
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	cols := int(math.Ceil(math.Sqrt(float64(n) * w / h)))
	if cols < 1 {
		cols = 1
	}
	rows := (n + cols - 1) / cols
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		pts = append(pts, geom.Point{
			X: bounds.MinX + (float64(c)+0.5)*w/float64(cols),
			Y: bounds.MinY + (float64(r)+0.5)*h/float64(rows),
		})
	}
	return pts, nil
}
