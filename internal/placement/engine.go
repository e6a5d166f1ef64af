package placement

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/falsealarm"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/stats"
	"github.com/groupdetect/gbd/internal/sweep"
	"github.com/groupdetect/gbd/internal/target"
)

// Stream channels within one trial. Every random draw in a run belongs to
// stream id trial*stride + channel, a pure function of the trial and what
// the draw is for — never of scheduling — which is what makes the whole
// run bit-identical at any worker count under both RNG schemes.
const (
	chTrack   = 0 // the trial's target track
	chUniform = 1 // the uniform-baseline deployment and its detection draws
	chPattern = 2 // + class*candidates + candidate: that pair's detection draws
)

// engine holds the precomputed objective state: the track panel and the
// per-(class, candidate) per-trial report counts.
type engine struct {
	cfg    Config
	total  int
	cands  []geom.Point
	bounds geom.Rect
	step   float64 // per-period target displacement

	// tracks is the flat track panel: trial t occupies
	// tracks[t*(M+1) : (t+1)*(M+1)].
	tracks []geom.Point
	// bbox is the per-trial track bounding box, one Rect per trial, used
	// to skip candidates that cannot be in range in any period.
	bbox []geom.Rect
	// counts[j*Trials + t] is pattern j's report count in trial t, where
	// j = class*len(cands) + candidate.
	counts []uint16
}

func newEngine(ctx context.Context, cfg Config, total int) (*engine, error) {
	p := cfg.Base
	eng := &engine{
		cfg:    cfg,
		total:  total,
		bounds: geom.Square(p.FieldSide),
		step:   p.Vt(),
	}
	eng.cands = candidateGrid(cfg.GridCols, cfg.GridRows, eng.bounds)
	if err := eng.sampleTracks(ctx); err != nil {
		return nil, err
	}
	if err := eng.countPatterns(ctx); err != nil {
		return nil, err
	}
	return eng, nil
}

// candidateGrid returns the cell centers of a cols x rows lattice over
// bounds, row-major.
func candidateGrid(cols, rows int, bounds geom.Rect) []geom.Point {
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	pts := make([]geom.Point, 0, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pts = append(pts, geom.Point{
				X: bounds.MinX + (float64(c)+0.5)*w/float64(cols),
				Y: bounds.MinY + (float64(r)+0.5)*h/float64(rows),
			})
		}
	}
	return pts
}

// stride is the number of stream channels per trial.
func (e *engine) stride() int64 {
	return int64(chPattern + len(e.cfg.Classes)*len(e.cands))
}

// sampleTracks draws the track panel: trial t's track comes from stream
// (t, chTrack) — uniform entry point, uniform heading, straight motion at
// the scenario speed, rejection-confined to the field like the simulator's
// default policy.
func (e *engine) sampleTracks(ctx context.Context) error {
	p := e.cfg.Base
	trials := e.cfg.Trials
	model := target.Straight{Step: e.step}
	e.tracks = make([]geom.Point, trials*(p.M+1))
	e.bbox = make([]geom.Rect, trials)
	stride := e.stride()
	return e.stripe(ctx, trials, func(st *field.Stream, _, t int) error {
		rng := st.At(e.cfg.RNG, e.cfg.Seed, int64(t)*stride+chTrack)
		track, err := target.Sample(model, p.M, e.bounds, true, rng)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrConfig, err)
		}
		copy(e.tracks[t*(p.M+1):], track)
		box := geom.Rect{MinX: track[0].X, MinY: track[0].Y, MaxX: track[0].X, MaxY: track[0].Y}
		for _, pt := range track[1:] {
			box.MinX = math.Min(box.MinX, pt.X)
			box.MinY = math.Min(box.MinY, pt.Y)
			box.MaxX = math.Max(box.MaxX, pt.X)
			box.MaxY = math.Max(box.MaxY, pt.Y)
		}
		e.bbox[t] = box
		return nil
	})
}

// stripe runs body over [0, n) on up to cfg.Workers workers through
// sweep.Stripe, handing worker w its own reusable stream.
func (e *engine) stripe(ctx context.Context, n int, body func(st *field.Stream, w, i int) error) error {
	workers := min(e.cfg.Workers, n)
	streams := make([]*field.Stream, workers)
	return sweep.Stripe(ctx, workers, n, func(w, i int) error {
		if streams[w] == nil {
			streams[w] = field.NewStream()
		}
		return body(streams[w], w, i)
	})
}

// countPatterns fills counts: for each (class, candidate) pattern j and
// trial t, the number of periods in which a sensor of that class at that
// cell would report, drawn from stream (t, chPattern+j). Draws happen
// only for in-range periods (a deterministic function of the track), so a
// pattern's stream consumption is independent of every other pattern.
func (e *engine) countPatterns(ctx context.Context) error {
	p := e.cfg.Base
	trials := e.cfg.Trials
	nCands := len(e.cands)
	nPatterns := len(e.cfg.Classes) * nCands
	e.counts = make([]uint16, nPatterns*trials)
	stride := e.stride()
	return e.stripe(ctx, nPatterns, func(st *field.Stream, _, j int) error {
		cls := e.cfg.Classes[j/nCands]
		cand := e.cands[j%nCands]
		rs2 := cls.Rs * cls.Rs
		row := e.counts[j*trials : (j+1)*trials]
		for t := 0; t < trials; t++ {
			// Candidates beyond Rs of the track's bounding box cannot be
			// in range in any period: no draws, count 0.
			box := e.bbox[t]
			if cand.X < box.MinX-cls.Rs || cand.X > box.MaxX+cls.Rs ||
				cand.Y < box.MinY-cls.Rs || cand.Y > box.MaxY+cls.Rs {
				continue
			}
			track := e.tracks[t*(p.M+1) : (t+1)*(p.M+1)]
			var rng *rand.Rand
			n := uint16(0)
			for period := 1; period <= p.M; period++ {
				seg := geom.Segment{A: track[period-1], B: track[period]}
				if seg.Dist2(cand) > rs2 {
					continue
				}
				if rng == nil {
					rng = st.At(e.cfg.RNG, e.cfg.Seed, int64(t)*stride+chPattern+int64(j))
				}
				if rng.Float64() < cls.Pd {
					n++
				}
			}
			row[t] = n
		}
		return nil
	})
}

// heapEntry is one live (class, candidate) pattern in the lazy priority
// queue. bound is a cached UPPER BOUND on the pattern's marginal gain in
// trials (an exact integer — counts, so ordering is never a float
// tie-break), not the gain itself: the K-of-M threshold objective is not
// submodular for K > 1 (a sensor's gain can grow as earlier picks push
// trials toward the threshold), so cached gains are not valid priorities.
// The bound #{trials: cur < K and row > 0} is — cur only ever grows, so
// trials leave the cur < K set permanently and the bound is monotone
// non-increasing across rounds, which makes the lazy selection below
// EXACTLY equivalent to plain full-scan greedy. For K = 1 the bound
// equals the gain and this degenerates to classic CELF lazy greedy.
type heapEntry struct {
	bound int32
	j     int32 // pattern index: class*candidates + candidate
}

// gainHeap is a max-heap on (bound, then lower pattern index) — a total
// order, so the pop sequence is deterministic.
type gainHeap []heapEntry

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) Less(a, b int) bool {
	if h[a].bound != h[b].bound {
		return h[a].bound > h[b].bound
	}
	return h[a].j < h[b].j
}
func (h gainHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *gainHeap) Push(x any)   { *h = append(*h, x.(heapEntry)) }
func (h *gainHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// marginalGain counts trials that cross the K threshold if pattern j's
// reports are added to the current totals.
func (e *engine) marginalGain(j int, cur []int32) int32 {
	k := int32(e.cfg.Base.K)
	row := e.counts[j*e.cfg.Trials : (j+1)*e.cfg.Trials]
	gain := int32(0)
	for t, c := range cur {
		if c < k && c+int32(row[t]) >= k {
			gain++
		}
	}
	return gain
}

// gainAndBound fuses marginalGain with the heap's upper bound in one scan:
// bound counts trials still below threshold where the pattern reports at
// all, gain the subset it pushes across.
func (e *engine) gainAndBound(j int, cur []int32) (gain, bound int32) {
	k := int32(e.cfg.Base.K)
	row := e.counts[j*e.cfg.Trials : (j+1)*e.cfg.Trials]
	for t, c := range cur {
		if c < k && row[t] > 0 {
			bound++
			if c+int32(row[t]) >= k {
				gain++
			}
		}
	}
	return gain, bound
}

// run executes the lazy-greedy selection and assembles the result.
func (e *engine) run(ctx context.Context) (*Result, error) {
	trials := e.cfg.Trials
	nCands := len(e.cands)
	nPatterns := len(e.cfg.Classes) * nCands
	cur := make([]int32, trials)

	// Seed pass: every pattern's standalone upper bound (== its count of
	// trials it reports in at all) enters the queue once.
	h := make(gainHeap, 0, nPatterns)
	evals := int64(0)
	for j := 0; j < nPatterns; j++ {
		_, bound := e.gainAndBound(j, cur)
		h = append(h, heapEntry{bound: bound, j: int32(j)})
		evals++
	}
	heap.Init(&h)

	remaining := make([]int, len(e.cfg.Classes))
	for i, cl := range e.cfg.Classes {
		remaining[i] = cl.Count
	}
	candUsed := make([]bool, nCands)
	lazyHits := int64(0)
	detected := 0
	sensors := make([]Placement, 0, e.total)
	var held []heapEntry

	for round := 0; round < e.total; round++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// avail is what plain greedy would re-evaluate this round; the
		// difference against the evaluations actually performed is what
		// the lazy queue saved.
		avail := int64(0)
		for j := 0; j < nPatterns; j++ {
			if !candUsed[j%nCands] && remaining[j/nCands] > 0 {
				avail++
			}
		}
		// Pop and evaluate patterns until every entry still in the queue is
		// bounded below the best gain seen (or cannot win its tie-break).
		// Evaluated entries are held aside with refreshed bounds and
		// re-pushed after the selection, so none is scanned twice per round.
		held = held[:0]
		roundEvals := int64(0)
		bestGain, bestIdx := int32(-1), -1
		for h.Len() > 0 {
			top := h[0]
			if bestIdx >= 0 &&
				(top.bound < bestGain ||
					(top.bound == bestGain && top.j > held[bestIdx].j)) {
				break // nothing left can beat bestGain under (gain, j) order
			}
			heap.Pop(&h)
			if candUsed[int(top.j)%nCands] || remaining[int(top.j)/nCands] == 0 {
				continue // permanently unusable; its entry leaves the queue
			}
			gain, bound := e.gainAndBound(int(top.j), cur)
			evals++
			roundEvals++
			top.bound = bound
			held = append(held, top)
			if gain > bestGain || (gain == bestGain && bestIdx >= 0 && top.j < held[bestIdx].j) {
				bestGain, bestIdx = gain, len(held)-1
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("placement: selection queue exhausted with budget left: %w", ErrConfig)
		}
		if round > 0 {
			lazyHits += avail - roundEvals
		}
		best := held[bestIdx]
		cls := int(best.j) / nCands
		cand := int(best.j) % nCands
		row := e.counts[int(best.j)*trials : (int(best.j)+1)*trials]
		k := int32(e.cfg.Base.K)
		for t := range cur {
			if row[t] == 0 {
				continue
			}
			was := cur[t]
			cur[t] = was + int32(row[t])
			if was < k && cur[t] >= k {
				detected++
			}
		}
		candUsed[cand] = true
		remaining[cls]--
		sensors = append(sensors, Placement{
			Pos:   e.cands[cand],
			Class: cls,
			Gain:  float64(bestGain) / float64(trials),
		})
		for i, en := range held {
			if i != bestIdx {
				heap.Push(&h, en)
			}
		}
	}

	placedCI, err := stats.WilsonInterval(detected, trials, 1.96)
	if err != nil {
		return nil, err
	}
	uniformDetected, err := e.uniformBaseline(ctx)
	if err != nil {
		return nil, err
	}
	uniformCI, err := stats.WilsonInterval(uniformDetected, trials, 1.96)
	if err != nil {
		return nil, err
	}
	ana, err := detect.MSApproachMixed(e.cfg.Base, e.detectClasses(), detect.MSOptions{})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Sensors:    sensors,
		Trials:     trials,
		Candidates: nCands,
		Evals:      evals,
		LazyHits:   lazyHits,
	}
	res.VsUniform = Comparison{
		PlacedProb:      float64(detected) / float64(trials),
		PlacedCI:        placedCI,
		UniformProb:     float64(uniformDetected) / float64(trials),
		UniformCI:       uniformCI,
		UniformAnalysis: ana.DetectionProb,
	}
	res.VsUniform.AbsGain = res.VsUniform.PlacedProb - res.VsUniform.UniformProb
	if res.VsUniform.UniformProb > 0 {
		res.VsUniform.RelGain = res.VsUniform.AbsGain / res.VsUniform.UniformProb
	}

	// §6 thresholds for the placed fleet size.
	mdl := e.cfg.faModel(e.total)
	kMin, err := falsealarm.KMin(mdl, e.cfg.FAHorizon, e.cfg.FABudget)
	if err != nil {
		return nil, err
	}
	res.KMin = kMin
	if kExact, err := falsealarm.KMinExact(mdl, e.cfg.FAHorizon, e.cfg.FABudget); err == nil {
		res.KMinExact = kExact
	}
	return res, nil
}

// detectClasses converts the placement classes for the analytical mixed-
// fleet baseline.
func (e *engine) detectClasses() []detect.SensorClass {
	out := make([]detect.SensorClass, len(e.cfg.Classes))
	for i, cl := range e.cfg.Classes {
		out[i] = detect.SensorClass{Count: cl.Count, Rs: cl.Rs, Pd: cl.Pd}
	}
	return out
}

// uniformBaseline simulates the paper's uniform-random deployment on the
// SAME track panel (a paired comparison: only the deployment channel
// differs), returning the number of detected trials. Per trial, stream
// (t, chUniform) first deploys every class's sensors uniformly, then
// draws each sensor's in-range detections class-major, sensor-major,
// period-major.
func (e *engine) uniformBaseline(ctx context.Context) (int, error) {
	p := e.cfg.Base
	trials := e.cfg.Trials
	stride := e.stride()
	detectedBy := make([]int, e.cfg.Workers)
	pos := make([][]geom.Point, e.cfg.Workers)
	err := e.stripe(ctx, trials, func(st *field.Stream, w, t int) error {
		rng := st.At(e.cfg.RNG, e.cfg.Seed, int64(t)*stride+chUniform)
		deployed := pos[w][:0]
		for _, c := range e.cfg.Classes {
			var err error
			if deployed, err = field.AppendUniform(deployed, c.Count, e.bounds, rng); err != nil {
				return err
			}
		}
		pos[w] = deployed
		track := e.tracks[t*(p.M+1) : (t+1)*(p.M+1)]
		reports, s := 0, 0
		for _, c := range e.cfg.Classes {
			rs2 := c.Rs * c.Rs
			for _, at := range deployed[s : s+c.Count] {
				for period := 1; period <= p.M; period++ {
					seg := geom.Segment{A: track[period-1], B: track[period]}
					if seg.Dist2(at) <= rs2 && rng.Float64() < c.Pd {
						reports++
					}
				}
			}
			s += c.Count
		}
		if reports >= p.K {
			detectedBy[w]++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, d := range detectedBy {
		total += d
	}
	return total, nil
}
