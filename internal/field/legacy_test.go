package field

import (
	"math"
	"math/rand"
	"testing"

	"github.com/groupdetect/gbd/internal/geom"
)

// legacyEdgeSeeds are the seeds where math/rand's seed normalization
// branches: zero (replaced by a fixed seed), ±(2^31-1) and its multiples
// (which reduce to zero), the int64 extremes, and the fixed seed itself.
var legacyEdgeSeeds = []int64{
	0, 1, -1, lehmerM, -lehmerM, 2 * lehmerM, -3 * lehmerM, lehmerM - 1, lehmerM + 1,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, lfSeed0, -lfSeed0, 42,
}

// TestLegacySourceMatchesMathRand checks the in-repo source draw for draw
// against math/rand over the edge seeds and over DeriveSeed trial
// streams, through every rand.Rand method the simulator uses.
func TestLegacySourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), legacyEdgeSeeds...)
	for trial := int64(0); trial < 40; trial++ {
		seeds = append(seeds, DeriveSeed(7, trial), DeriveSeed(-3, trial))
	}
	s := NewStream()
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		for name, got := range map[string]*rand.Rand{"NewRand": NewRand(seed), "Stream": reseeded(s, seed)} {
			// Past 2·607 draws every register word has been rewritten twice.
			for i := 0; i < 1500; i++ {
				var g, w uint64
				switch i % 4 {
				case 0:
					g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
				case 1:
					g, w = uint64(got.Int63()), uint64(want.Int63())
				case 2:
					g, w = got.Uint64(), want.Uint64()
				case 3:
					g, w = uint64(got.Intn(1000+i)), uint64(want.Intn(1000+i))
				}
				if g != w {
					t.Fatalf("%s seed %d draw %d: got %x, want %x", name, seed, i, g, w)
				}
			}
			want = rand.New(rand.NewSource(seed))
		}
	}
}

// reseeded points s's legacy generator at seed directly, bypassing
// DeriveSeed, after draining some of its previous stream.
func reseeded(s *Stream, seed int64) *rand.Rand {
	s.legacy.Float64()
	s.legacy.Seed(seed)
	return s.legacy
}

// TestStreamAtMatchesNewRand checks that a reused Stream positioned with
// At replays NewRand(DeriveSeed(seed, id)), that the reseed resets the
// wrapper's Read state, and that the bulk deployment equals the
// interface-call deployment under both schemes.
func TestStreamAtMatchesNewRand(t *testing.T) {
	s := NewStream()
	bounds := geom.Rect{MinX: -50, MinY: 10, MaxX: 950, MaxY: 410}
	for id := int64(0); id < 20; id++ {
		var half [3]byte
		s.At(SchemeLegacy, 5, id).Read(half[:]) // leaves buffered Read bytes
		got := s.At(SchemeLegacy, 5, id)
		want := NewRand(DeriveSeed(5, id))
		var gb, wb [9]byte
		got.Read(gb[:])
		want.Read(wb[:])
		if gb != wb {
			t.Fatalf("id %d: Read after At = %x, want %x", id, gb, wb)
		}
		for _, scheme := range []RNGScheme{SchemeLegacy, SchemePhilox} {
			ref, err := Uniform(int(id)*7, bounds, NewStream().At(scheme, 5, id))
			if err != nil {
				t.Fatal(err)
			}
			s.At(scheme, 5, id)
			pts, err := s.AppendUniform([]geom.Point{{X: -1, Y: -1}}, int(id)*7, bounds)
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != len(ref)+1 || pts[0] != (geom.Point{X: -1, Y: -1}) {
				t.Fatalf("%v id %d: AppendUniform returned %d points, want %d after the prefix", scheme, id, len(pts), len(ref)+1)
			}
			for i := range ref {
				if pts[i+1] != ref[i] {
					t.Fatalf("%v id %d sensor %d: %v, want %v", scheme, id, i, pts[i+1], ref[i])
				}
			}
		}
	}
	if _, err := s.AppendUniform(nil, -1, bounds); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := s.AppendUniform(nil, 3, geom.Rect{}); err == nil {
		t.Error("empty bounds should fail")
	}
}

// BenchmarkLegacyReseed measures one legacy-scheme trial reseed through
// Stream.At; the math-rand sub-benchmark is the same reseed on math/rand's
// own source, for comparison.
func BenchmarkLegacyReseed(b *testing.B) {
	b.Run("stream", func(b *testing.B) {
		s := NewStream()
		for i := 0; i < b.N; i++ {
			s.At(SchemeLegacy, 1, int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			r.Seed(DeriveSeed(1, int64(i)))
		}
	})
}
