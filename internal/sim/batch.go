package sim

import (
	"math/rand"
	"sync"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

// The SoA batch engine: under the counter-based RNG scheme, plain trials
// (no faults, no delivery, no false alarms, no exposure) run batchW at a
// time, one batch per striped work item. Deployment coordinates land in
// contiguous structure-of-arrays float64 slices filled by tight loops over
// concrete Philox draws — no interface dispatch, no per-trial reseed. Each
// trial still owns its counter stream (key = seed, counter = trial), so
// batch results are bit-identical to running the same trials one at a
// time through runTrial, which the determinism tests assert at several
// worker counts.
//
// batchW bounds the scratch footprint, not parallelism (workers is
// that): 16 slots × 240 sensors × 2 coordinates ≈ 60 KiB of float64,
// comfortably cache-resident.
const batchW = 16

// batchScratch is the arena of one batch, pooled like trialScratch so
// batches — and benchmark-shaped campaigns (one short Run per iteration)
// — reuse the arrays.
type batchScratch struct {
	phil   [batchW]field.Philox
	rands  [batchW]*rand.Rand // rand.New(&phil[j]), built once; track sampling needs *rand.Rand
	trials [batchW]int
	u      []float64 // raw uniform draws for one trial's deployment
	xs, ys []float64 // SoA deployment coordinates, slot-major [slot*n : (slot+1)*n]
	counts []int     // per-period report counts of the current trial, 1-based
	idx    field.Index
	buf    []int // spatial-query result buffer
}

var batchPool = sync.Pool{
	New: func() any {
		batchNews.Inc()
		bs := &batchScratch{buf: make([]int, 0, 16)}
		for j := range bs.phil {
			bs.rands[j] = rand.New(&bs.phil[j])
		}
		return bs
	},
}

// floats returns s resized to n, reusing the backing array when it is
// large enough. Unlike ints it does not zero: batch fills overwrite every
// element.
func floats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// runBatch aggregates batch b of a batchable campaign — trials
// [b*batchW, (b+1)*batchW) — into p. It is the batch-engine counterpart of
// runTrial and must consume each trial's stream in exactly runTrial's
// draw order: 2N deployment draws, then the track draws, then one
// Bernoulli draw per queried sensor per period (none when Pd >= 1 —
// sensing.Disk.Detects short-circuits before drawing, and every id
// QuerySegment returns already passed the identical distance predicate
// Covers would re-apply).
func runBatch(cfg Config, b int, p *partial) error {
	prm := cfg.Params
	bounds := geom.Square(prm.FieldSide)
	cell := field.CellSize(prm.Rs, prm.FieldSide)
	mission := cfg.MissionPeriods
	n := prm.N
	fw := bounds.MaxX - bounds.MinX
	fh := bounds.MaxY - bounds.MinY

	bs := batchPool.Get().(*batchScratch)
	batchGets.Inc()
	defer batchPool.Put(bs)

	m := 0
	for t := b * batchW; t < cfg.Trials && m < batchW; t++ {
		bs.trials[m] = t
		m++
	}
	trialsTotal.Add(uint64(m))

	// Phase 1: deployments for all m trials into the SoA buffers. Draw
	// order per trial matches field.Uniform: X then Y per sensor.
	xs := floats(bs.xs, m*n)
	ys := floats(bs.ys, m*n)
	u := floats(bs.u, 2*n)
	bs.xs, bs.ys, bs.u = xs, ys, u
	for j := 0; j < m; j++ {
		ph := &bs.phil[j]
		ph.Reset(cfg.Seed, int64(bs.trials[j]))
		ph.Float64s(u)
		xj := xs[j*n : (j+1)*n]
		yj := ys[j*n : (j+1)*n]
		for i := range xj {
			xj[i] = bounds.MinX + u[2*i]*fw
			yj[i] = bounds.MinY + u[2*i+1]*fh
		}
	}

	// Phase 2: per trial — index, track, and the period loop. Every
	// period overwrites its count, so the trials share one row.
	row := ints(bs.counts, mission+1)
	bs.counts = row
	for j := 0; j < m; j++ {
		if err := bs.idx.RebuildXY(xs[j*n:(j+1)*n], ys[j*n:(j+1)*n], bounds, cell); err != nil {
			return err
		}
		track, err := cfg.sampleTrack(bounds, bs.rands[j])
		if err != nil {
			return err
		}
		ph := &bs.phil[j]
		buf := bs.buf
		reports := 0
		for period := 1; period <= mission; period++ {
			seg := geom.Segment{A: track[period-1], B: track[period]}
			buf = bs.idx.QuerySegment(seg, prm.Rs, buf[:0])
			count := 0
			if prm.Pd >= 1 {
				count = len(buf)
			} else {
				for range buf {
					if ph.Float64() < prm.Pd {
						count++
					}
				}
			}
			reports += count
			row[period] = count
		}
		bs.buf = buf
		if err := p.record(firstDetection(row, prm.M, prm.K), reports); err != nil {
			return err
		}
	}
	return nil
}
