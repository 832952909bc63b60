package alloc

import (
	"fmt"
	"math"

	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// Exhaustive searches every (SF, TP, channel)^N assignment and returns the
// true max-min-optimal allocation under the analytical model. The search
// space is (n_s·n_t·n_c)^N — the paper proves the problem NP-hard — so this
// allocator exists purely to measure the greedy's optimality gap on
// networks of a handful of devices (see TestGreedyNearOptimal).
// exhaustiveMaxStates guards against accidental explosion.
type Exhaustive struct {
	// RestrictChannels limits the channel choices to the first k channels
	// (0 = all); with symmetric channels this shrinks the space without
	// changing the achievable optimum structure.
	RestrictChannels int
}

// exhaustiveMaxStates caps the number of assignments Exhaustive visits.
const exhaustiveMaxStates = 5_000_000

// Allocate implements Allocator by enumerating the full space.
func (x Exhaustive) Allocate(net *model.Network, p model.Params, _ *rng.RNG) (model.Allocation, error) {
	if err := p.Validate(); err != nil {
		return model.Allocation{}, err
	}
	if err := net.Validate(p); err != nil {
		return model.Allocation{}, err
	}
	n := net.N()
	gains := model.Gains(net, p)

	// Candidate list per device: feasible (sf, tp, ch) triples.
	nch := p.Plan.NumChannels()
	if x.RestrictChannels > 0 && x.RestrictChannels < nch {
		nch = x.RestrictChannels
	}
	type cand struct {
		sf lora.SF
		tp float64
		ch int
	}
	cands := make([][]cand, n)
	total := 1.0
	for i := 0; i < n; i++ {
		for _, sf := range lora.SFs() {
			for _, tp := range p.Plan.TxPowerLevels() {
				if !model.Feasible(gains, i, sf, tp) {
					continue
				}
				for c := 0; c < nch; c++ {
					cands[i] = append(cands[i], cand{sf, tp, c})
				}
			}
		}
		if len(cands[i]) == 0 {
			// Unreachable device: pin it to SF12 at max power.
			cands[i] = []cand{{lora.MaxSF, p.Plan.MaxTxPowerDBm, 0}}
		}
		total *= float64(len(cands[i]))
	}
	if total > exhaustiveMaxStates {
		return model.Allocation{}, fmt.Errorf(
			"alloc: exhaustive search space %.3g exceeds %d states", total, exhaustiveMaxStates)
	}

	// Walk the space as an odometer, mutating one evaluator incrementally:
	// each step reassigns only the devices whose digit changed, which is
	// O(G + affected group) instead of an O(N·G) rebuild per state.
	idx := make([]int, n)
	cur := model.NewAllocation(n, p.Plan)
	for i := range idx {
		c := cands[i][0]
		cur.SF[i], cur.TPdBm[i], cur.Channel[i] = c.sf, c.tp, c.ch
	}
	ev, err := model.NewEvaluator(net, p, cur, model.ModeExact)
	if err != nil {
		return model.Allocation{}, err
	}
	best := cur.Clone()
	bestMin := math.Inf(-1)
	states := 0
	for {
		min, _ := ev.MinEE()
		if min > bestMin {
			bestMin = min
			best = ev.Allocation()
		}
		// Odometer increment with incremental reassignment.
		i := 0
		for i < n {
			idx[i]++
			wrap := idx[i] >= len(cands[i])
			if wrap {
				idx[i] = 0
			}
			c := cands[i][idx[i]]
			if err := ev.SetDevice(i, c.sf, c.tp, c.ch); err != nil {
				return model.Allocation{}, err
			}
			if !wrap {
				break
			}
			i++
		}
		if i == n {
			break
		}
		states++
		// Flush incremental numerical drift periodically.
		if states%8192 == 0 {
			ev.RecomputeAll()
		}
	}
	return best, nil
}

var _ Allocator = Exhaustive{}
