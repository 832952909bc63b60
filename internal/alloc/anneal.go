package alloc

import (
	"math"

	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// Anneal is a simulated-annealing solver for the max-min allocation
// problem. It exists as a solution-quality yardstick: the exhaustive
// optimum is only computable for a handful of devices, so annealing gives
// an independent (slower, randomized) reference point for judging the
// EF-LoRa greedy at realistic sizes. It is not part of the paper.
type Anneal struct {
	// Steps is the number of proposal steps (default 20000).
	Steps int
	// Restarts runs several independent chains, keeping the best
	// (default 2).
	Restarts int
}

// annealStartTemp and annealEndTemp bound the geometric cooling
// schedule, expressed as fractions of the initial objective.
const (
	annealStartTemp = 0.5
	annealEndTemp   = 1e-4
)

func (an Anneal) withDefaults() Anneal {
	if an.Steps <= 0 {
		an.Steps = 20000
	}
	if an.Restarts <= 0 {
		an.Restarts = 2
	}
	return an
}

// Allocate implements Allocator.
func (an Anneal) Allocate(net *model.Network, p model.Params, r *rng.RNG) (model.Allocation, error) {
	an = an.withDefaults()
	if err := p.Validate(); err != nil {
		return model.Allocation{}, err
	}
	if err := net.Validate(p); err != nil {
		return model.Allocation{}, err
	}
	if r == nil {
		r = rng.New(1)
	}
	gains := model.Gains(net, p)
	n := net.N()
	tpLevels := p.Plan.TxPowerLevels()
	nch := p.Plan.NumChannels()

	// Feasible SF lower bound per device.
	minSF := make([]lora.SF, n)
	for i := 0; i < n; i++ {
		sf, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			sf = lora.MaxSF
		}
		minSF[i] = sf
	}

	bestOverall := model.Allocation{}
	bestOverallMin := math.Inf(-1)
	for restart := 0; restart < an.Restarts; restart++ {
		// Random feasible start.
		cur := model.NewAllocation(n, p.Plan)
		for i := 0; i < n; i++ {
			span := int(lora.MaxSF - minSF[i] + 1)
			cur.SF[i] = minSF[i] + lora.SF(r.Intn(span))
			cur.TPdBm[i] = tpLevels[r.Intn(len(tpLevels))]
			if !model.Feasible(gains, i, cur.SF[i], cur.TPdBm[i]) {
				cur.TPdBm[i] = p.Plan.MaxTxPowerDBm
			}
			cur.Channel[i] = r.Intn(nch)
		}
		ev, err := model.NewEvaluator(net, p, cur, model.ModeExact)
		if err != nil {
			return model.Allocation{}, err
		}
		curMin, _ := ev.MinEE()
		bestMin := curMin
		best := ev.Allocation()
		t0 := annealStartTemp * math.Max(curMin, 1e-12)
		t1 := annealEndTemp * math.Max(curMin, 1e-12)
		for step := 0; step < an.Steps; step++ {
			frac := float64(step) / float64(an.Steps)
			temp := t0 * math.Pow(t1/t0, frac)
			i := r.Intn(n)
			// Propose a random feasible move for one device.
			span := int(lora.MaxSF - minSF[i] + 1)
			sf := minSF[i] + lora.SF(r.Intn(span))
			tp := tpLevels[r.Intn(len(tpLevels))]
			if !model.Feasible(gains, i, sf, tp) {
				tp = p.Plan.MaxTxPowerDBm
			}
			ch := r.Intn(nch)
			proposed := ev.MinEEIf(i, sf, tp, ch)
			accept := proposed >= curMin
			if !accept && temp > 0 {
				accept = r.Float64() < math.Exp((proposed-curMin)/temp)
			}
			if !accept {
				continue
			}
			if err := ev.SetDevice(i, sf, tp, ch); err != nil {
				return model.Allocation{}, err
			}
			curMin, _ = ev.MinEE()
			if curMin > bestMin {
				bestMin = curMin
				best = ev.Allocation()
			}
		}
		if bestMin > bestOverallMin {
			bestOverallMin = bestMin
			bestOverall = best
		}
	}
	return bestOverall, nil
}

var _ Allocator = Anneal{}
