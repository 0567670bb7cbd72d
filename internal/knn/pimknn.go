package knn

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/bound"
	"pimmine/internal/pim"
	"pimmine/internal/pimbound"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// pimFNNStage quantizes the dataset's segment statistics at granularity
// segs and programs the ⌊µ⌋ and ⌊σ⌋ payloads of LB_PIM-FNN (Theorem 2,
// Fig 10). The payloads live in disjoint crossbar groups (Fig 10's
// crossbar a / crossbar b), so both dot products come out of one
// concurrent pass (§V-C's parallel function groups). Per consultation the
// host moves Φ(p̂) plus two dot products (Φ(q̂) is cached) — Fig 8's 3·b
// bits.
func pimFNNStage(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, segs int, tag string) (stage, error) {
	ix, err := pimbound.BuildFNN(data, q, segs)
	if err != nil {
		return stage{}, err
	}
	muPay, err := eng.Program(tag+"/mu", data.N, segs, 2, ix.MuFloor)
	if err != nil {
		return stage{}, err
	}
	sgPay, err := eng.Program(tag+"/sigma", data.N, segs, 2, ix.SigmaFloor)
	if err != nil {
		return stage{}, err
	}
	name := fmt.Sprintf("LBPIM-FNN-%d", segs)
	pays := []*pim.Payload{muPay, sgPay}
	inputs, dsts := make([][]uint32, 2), make([][]int64, 2)
	qMu, qSg := make([]uint32, segs), make([]uint32, segs)
	var qf pimbound.FNNQuery
	var dotsMu, dotsSg []int64
	return stage{
		name: name, dims: 3, payloads: pays,
		prepare: func(qv []float64, meter *arch.Meter) error {
			var err error
			if qf, err = ix.QueryInto(qv, qMu, qSg); err != nil {
				return err
			}
			inputs[0], inputs[1] = qf.MuFloor, qf.SigmaFloor
			if dsts, err = eng.QueryAllParallel(meter, name, pays, inputs, dsts); err != nil {
				return err
			}
			dotsMu, dotsSg = dsts[0], dsts[1]
			return nil
		},
		lb: func(i int) float64 { return ix.LB(i, qf, dotsMu[i], dotsSg[i]) },
	}, nil
}

// theorem4S is the compressed dimensionality Theorem 4 allows for
// capacityN objects with two payloads per object.
func theorem4S(eng *pim.Engine, d, capacityN int) (int, error) {
	s := eng.Model().ChooseS(capacityN, pim.Divisors(d), 2)
	if s == 0 {
		return 0, fmt.Errorf("knn: no compressed dimensionality of d=%d fits the PIM array for N=%d", d, capacityN)
	}
	return s, nil
}

// StandardPIM is the PIM-optimized linear scan: a single LB_PIM-FNN
// filter at the Theorem 4 dimensionality, then exact refinement. Matches
// §VI-C's Standard-PIM (e.g. s=105 on MSD, s=50 on ImageNet when sized
// against the full dataset cardinalities).
type StandardPIM struct {
	scan
	s int
}

// NewStandardPIM sizes the compressed dimensionality with Theorem 4
// against capacityN objects (pass the dataset's full-scale cardinality to
// reproduce the paper's constraint; the generated data may be smaller) and
// programs the payloads.
func NewStandardPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, capacityN int) (*StandardPIM, error) {
	s, err := theorem4S(eng, data.D, capacityN)
	if err != nil {
		return nil, err
	}
	lb, err := pimFNNStage(eng, data, q, s, "standard-pim")
	if err != nil {
		return nil, err
	}
	return &StandardPIM{newScan(data, "Standard-PIM", lb), s}, nil
}

// S returns the Theorem 4 compressed dimensionality in use.
func (a *StandardPIM) S() int { return a.s }

// FNNPIM is the PIM-optimized FNN cascade: its bottleneck (coarsest)
// bound replaced by LB_PIM-FNN at the Theorem 4 dimensionality, which is
// computed in one batch on the array, then the finer original bounds
// (§VI-C's default plan). FNN-PIM-optimize drops the host bounds the §V-D
// plan optimizer rejects.
type FNNPIM struct {
	scan
	s int
}

// NewFNNPIM builds the default plan: LB_PIM-FNN(s) followed by the
// original cascade's finer levels (those with granularity above the
// replaced bottleneck level).
func NewFNNPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, capacityN int) (*FNNPIM, error) {
	levels := bound.FNNLevels(data.D)
	return newFNNPIM(eng, data, q, capacityN, levels[1:], "FNN-PIM")
}

// NewFNNPIMOptimized builds FNN-PIM with an explicit set of retained host
// granularities (possibly none), as selected by the §V-D plan optimizer.
func NewFNNPIMOptimized(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, capacityN int, hostSegs []int) (*FNNPIM, error) {
	return newFNNPIM(eng, data, q, capacityN, hostSegs, "FNN-PIM-optimize")
}

func newFNNPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, capacityN int, hostSegs []int, variant string) (*FNNPIM, error) {
	s, err := theorem4S(eng, data.D, capacityN)
	if err != nil {
		return nil, err
	}
	lb, err := pimFNNStage(eng, data, q, s, variant)
	if err != nil {
		return nil, err
	}
	stages := []stage{lb}
	for _, segs := range hostSegs {
		if segs == s {
			continue // subsumed by the PIM bound at equal granularity
		}
		ix, err := bound.BuildFNN(data, segs)
		if err != nil {
			return nil, err
		}
		stages = append(stages, fnnStage(ix))
	}
	return &FNNPIM{newScan(data, variant, stages...), s}, nil
}

// S returns the Theorem 4 compressed dimensionality in use.
func (a *FNNPIM) S() int { return a.s }

// SMPIM is the PIM-optimized segmented-mean searcher: LB_SM's bottleneck
// replaced by its PIM-aware form — Theorem 1's floor trick applied to the
// segment-mean vectors, scaled by the segment length l:
//
//	LB_PIM-SM(p,q) = l · LB_PIM-ED(µ(p̂), µ(q̂)) ≤ LB_SM ≤ ED.
type SMPIM struct{ scan }

// NewSMPIM derives segment means at granularity segs (compressed further
// if Theorem 4 requires), quantizes them and programs the payload.
func NewSMPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, segs, capacityN int) (*SMPIM, error) {
	// Respect capacity: shrink to the largest fitting divisor granularity.
	if !eng.Model().Fits(capacityN, segs, 1) {
		segs = eng.Model().ChooseS(capacityN, pim.Divisors(data.D), 1)
		if segs == 0 {
			return nil, fmt.Errorf("knn: no SM granularity fits the PIM array for N=%d", capacityN)
		}
	}
	mus := vec.NewMatrix(data.N, segs)
	for i := 0; i < data.N; i++ {
		mu, _, err := vec.SegmentStats(data.Row(i), segs)
		if err != nil {
			return nil, err
		}
		copy(mus.Row(i), mu)
	}
	ix := pimbound.BuildED(mus, q)
	pay, err := eng.Program("sm-pim/mu", data.N, segs, 1, ix.Floor)
	if err != nil {
		return nil, err
	}
	l := float64(data.D / segs)
	qMu, qSg, qFloor := make([]float64, segs), make([]float64, segs), make([]uint32, segs)
	var qf pimbound.EDQuery
	var dots []int64
	lb := stage{
		name: "LBPIM-SM", dims: 2, payloads: []*pim.Payload{pay},
		prepare: func(qv []float64, meter *arch.Meter) error {
			if err := vec.SegmentStatsInto(qv, segs, qMu, qSg); err != nil {
				return err
			}
			qf = ix.QueryInto(qMu, qFloor)
			out, err := eng.QueryAll(meter, "LBPIM-SM", pay, qf.Floor, dots)
			dots = out
			return err
		},
		lb: func(i int) float64 { return l * ix.LB(i, qf, dots[i]) },
	}
	return &SMPIM{newScan(data, "SM-PIM", lb)}, nil
}

// OSTPIM is the PIM-optimized orthogonal-search-tree searcher: LB_OST's
// head partial distance replaced by Theorem 1's floor trick over the head
// prefix, keeping the exact tail-norm term (both tail norms are
// precomputed scalars):
//
//	LB_PIM-OST(p,q) = LB_PIM-ED(p_head, q_head) + (‖p_tail‖ − ‖q_tail‖)²
type OSTPIM struct{ scan }

// NewOSTPIM builds the PIM head filter with head length d0, clamped to
// Theorem 4 capacity.
func NewOSTPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, d0, capacityN int) (*OSTPIM, error) {
	if d0 <= 0 || d0 >= data.D {
		return nil, fmt.Errorf("knn: OST-PIM head length %d outside (0,%d)", d0, data.D)
	}
	if fit := eng.Model().MaxFitting(capacityN, d0, 1); fit < d0 {
		if fit == 0 {
			return nil, fmt.Errorf("knn: no OST head length fits the PIM array for N=%d", capacityN)
		}
		d0 = fit
	}
	heads := vec.NewMatrix(data.N, d0)
	tails := make([]float64, data.N)
	for i := 0; i < data.N; i++ {
		row := data.Row(i)
		copy(heads.Row(i), row[:d0])
		tails[i] = vec.Norm(row[d0:])
	}
	ix := pimbound.BuildED(heads, q)
	pay, err := eng.Program("ost-pim/head", data.N, d0, 1, ix.Floor)
	if err != nil {
		return nil, err
	}
	qFloor := make([]uint32, d0)
	var qf pimbound.EDQuery
	var qTail float64
	var dots []int64
	lb := stage{
		// Per consultation: Φ(p_head), dot, ‖p_tail‖ → 3 operands.
		name: "LBPIM-OST", dims: 3, payloads: []*pim.Payload{pay},
		prepare: func(qv []float64, meter *arch.Meter) error {
			qf = ix.QueryInto(qv[:d0], qFloor)
			qTail = vec.Norm(qv[d0:])
			out, err := eng.QueryAll(meter, "LBPIM-OST", pay, qf.Floor, dots)
			dots = out
			return err
		},
		lb: func(i int) float64 {
			dt := tails[i] - qTail
			return ix.LB(i, qf, dots[i]) + dt*dt
		},
	}
	return &OSTPIM{newScan(data, "OST-PIM", lb)}, nil
}
