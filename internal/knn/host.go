package knn

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/bound"
	"pimmine/internal/vec"
)

// Standard is the exact ED linear scan over a dataset: the scan with no
// bound, so every row is refined.
type Standard struct{ scan }

// NewStandard builds the baseline scan.
func NewStandard(data *vec.Matrix) *Standard {
	return &Standard{newScan(data, "Standard")}
}

// OST prunes with the orthogonal-search-tree bound before refining.
type OST struct{ scan }

// NewOST builds the OST searcher with head length d0 (the paper's baseline
// setting uses half the dimensions; callers may tune).
func NewOST(data *vec.Matrix, d0 int) (*OST, error) {
	ix, err := bound.BuildOST(data, d0)
	if err != nil {
		return nil, err
	}
	var q []float64
	var qTail float64
	lbost := stage{
		name: "LBOST", dims: ix.TransferDims(),
		prepare: func(qv []float64, _ *arch.Meter) error {
			q, qTail = qv, ix.QueryTail(qv)
			return nil
		},
		lb: func(i int) float64 { return ix.LB(i, q, qTail) },
	}
	return &OST{newScan(data, "OST", lbost)}, nil
}

// SM prunes with the segmented-mean bound before refining.
type SM struct{ scan }

// NewSM builds the SM searcher with segs segments.
func NewSM(data *vec.Matrix, segs int) (*SM, error) {
	ix, err := bound.BuildSM(data, segs)
	if err != nil {
		return nil, err
	}
	qMu := make([]float64, ix.Segs)
	lbsm := stage{
		name: "LBSM", dims: ix.TransferDims(),
		prepare: func(q []float64, _ *arch.Meter) error { return ix.QueryMuInto(q, qMu) },
		lb:      func(i int) float64 { return ix.LB(i, qMu) },
	}
	return &SM{newScan(data, "SM", lbsm)}, nil
}

// FNN applies the paper's three-level LB_FNN cascade (granularities near
// d/64, d/16, d/4 — Fig 12a) before exact refinement.
type FNN struct {
	scan
	Levels []*bound.FNNIndex // ascending granularity
}

// NewFNN builds the FNN searcher with the standard cascade for the data's
// dimensionality.
func NewFNN(data *vec.Matrix) (*FNN, error) {
	levels := bound.FNNLevels(data.D)
	return NewFNNWithLevels(data, levels[:])
}

// NewFNNWithLevels builds the cascade with explicit segment counts
// (ascending). Duplicate granularities are collapsed.
func NewFNNWithLevels(data *vec.Matrix, segCounts []int) (*FNN, error) {
	var levels []*bound.FNNIndex
	var stages []stage
	seen := map[int]bool{}
	for _, segs := range segCounts {
		if seen[segs] {
			continue
		}
		seen[segs] = true
		ix, err := bound.BuildFNN(data, segs)
		if err != nil {
			return nil, err
		}
		levels = append(levels, ix)
		stages = append(stages, fnnStage(ix))
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("knn: FNN needs at least one granularity")
	}
	return &FNN{newScan(data, "FNN", stages...), levels}, nil
}

// fnnStage is one LB_FNN level of a cascade.
func fnnStage(ix *bound.FNNIndex) stage {
	mu, sigma := make([]float64, ix.Segs), make([]float64, ix.Segs)
	return stage{
		name: fmt.Sprintf("LBFNN-%d", ix.Segs), dims: ix.TransferDims(),
		prepare: func(q []float64, _ *arch.Meter) error { return ix.QueryStatsInto(q, mu, sigma) },
		lb:      func(i int) float64 { return ix.LB(i, mu, sigma) },
	}
}
