package alloc

import (
	"math"
	"sort"
	"time"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// Options configures the EF-LoRa greedy allocator.
type Options struct {
	// Delta is the relative min-EE improvement below which the outer
	// iteration stops (paper Algorithm 1's δ; default 0.01).
	Delta float64
	// MaxPasses caps the outer iterations as a safety net (default 10).
	MaxPasses int
	// FixedTPdBm, when non-nil, pins every device to this transmission
	// power — the EF-LoRa-14dBm ablation of Fig. 9.
	FixedTPdBm *float64
	// RandomOrder disables the density-first ordering and visits devices
	// in a seeded random order instead (the ablation behind the paper's
	// 10.3% execution-delay claim).
	RandomOrder bool
	// Starts caps the multi-start initial allocations the greedy refines:
	// 0 runs all four, 1..4 keeps a prefix of [minimal-SF/max-power,
	// balanced/max-power, balanced/min-power, RS-LoRa]. The hierarchical
	// allocator trims per-cell starts to trade a little solution quality
	// for throughput.
	Starts int
}

func (o Options) withDefaults() Options {
	if o.Delta <= 0 {
		o.Delta = 0.01
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = 10
	}
	return o
}

// Report describes one EF-LoRa allocation run.
type Report struct {
	// Passes is the number of outer iterations executed.
	Passes int
	// Improvements counts committed single-device changes.
	Improvements int
	// CandidatesTried counts the enumerated (device, SF, TP, channel)
	// options: every feasible move other than the device's current one.
	CandidatesTried int
	// CandidatesEvaluated counts the MinEEIfAbove calls the scans made:
	// the tried options the bottleneck-group pruning did not rule out.
	CandidatesEvaluated int
	// InitialMinEE and FinalMinEE bracket the optimization (bits/J).
	// FinalMinEE is the returned allocation's minimum exactly as a fresh
	// evaluator (EvaluateMinEE) scores it.
	InitialMinEE, FinalMinEE float64
	// Elapsed is the wall-clock optimization time (Fig. 10's metric).
	Elapsed time.Duration
}

// EFLoRa is the paper's greedy max-min energy-fairness allocator
// (Algorithm 1): starting from a density-first minimal allocation it
// repeatedly re-optimizes one device at a time, committing any (SF, TP,
// channel) choice that raises the network's minimum energy efficiency,
// until one full pass improves the minimum by less than δ.
type EFLoRa struct {
	opts Options
}

// NewEFLoRa returns an EF-LoRa allocator with the given options.
func NewEFLoRa(opts Options) *EFLoRa {
	return &EFLoRa{opts: opts.withDefaults()}
}

// Allocate implements Allocator.
func (a *EFLoRa) Allocate(net *model.Network, p model.Params, r *rng.RNG) (model.Allocation, error) {
	alloc, _, err := a.AllocateWithReport(net, p, r)
	return alloc, err
}

// AllocateWithReport runs the greedy optimization and returns its
// diagnostics alongside the allocation.
func (a *EFLoRa) AllocateWithReport(net *model.Network, p model.Params, r *rng.RNG) (model.Allocation, Report, error) {
	//eflora:nondeterminism-ok Report.Elapsed is a wall-clock diagnostic (Fig. 10); it never feeds the allocation
	start := time.Now()
	var rep Report
	if err := p.Validate(); err != nil {
		return model.Allocation{}, rep, err
	}
	if err := net.Validate(p); err != nil {
		return model.Allocation{}, rep, err
	}
	gains := model.Gains(net, p)
	order := a.deviceOrder(net, r)

	// Multi-start: a single-device greedy cannot make the coordinated
	// "spread the herd" moves that congested regimes need (moving one
	// device out of a crowded group rarely raises the minimum by itself,
	// and lowering one device's power never helps the bottleneck
	// directly), so we run the same greedy from three initial
	// allocations — minimum feasible SF at maximum power (best when
	// links are margin-limited), collision-balanced group populations at
	// maximum power, and collision-balanced populations at minimum
	// feasible power (best when traffic is collision-limited: low power
	// means low visibility, hence low mutual collision exposure) — and
	// keep the best converged result. Every committed move is monotone
	// in min-EE, so each run can only improve on its start.
	// Inits are built lazily so Options.Starts skips the construction cost
	// of the starts it trims, not just their refinement.
	initBuilders := []func() (model.Allocation, bool){
		func() (model.Allocation, bool) { return a.initialAllocation(net, p, gains), true },
		func() (model.Allocation, bool) { return a.initialBalanced(net, p, gains, false), true },
		func() (model.Allocation, bool) { return a.initialBalanced(net, p, gains, true), true },
		func() (model.Allocation, bool) {
			// Refining from the RS-LoRa baseline's own allocation
			// guarantees EF-LoRa dominates it under the model: the greedy
			// is monotone, so the converged result scores at least as
			// high. (Skipped when power is pinned: RS-LoRa sets
			// per-device powers.)
			if a.opts.FixedTPdBm != nil {
				return model.Allocation{}, false
			}
			rs, err := (RSLoRa{}).Allocate(net, p, nil)
			if err != nil {
				return model.Allocation{}, false
			}
			return rs, true
		},
	}
	starts := a.opts.Starts
	if starts <= 0 || starts > len(initBuilders) {
		starts = len(initBuilders)
	}
	bestMin := math.Inf(-1)
	var bestAlloc model.Allocation
	for ii := 0; ii < starts; ii++ {
		init, ok := initBuilders[ii]()
		if !ok {
			continue
		}
		ev, err := model.NewEvaluator(net, p, init, model.ModeExact)
		if err != nil {
			return model.Allocation{}, rep, err
		}
		if ii == 0 {
			rep.InitialMinEE, _ = ev.MinEE()
		}
		cur, err := a.refine(ev, gains, order, p, &rep)
		if err != nil {
			return model.Allocation{}, rep, err
		}
		if cur > bestMin {
			bestMin = cur
			bestAlloc = ev.Allocation()
		}
	}
	// Score the result on a fresh evaluator: the incremental group sums
	// drift by an ULP now and then over many commits, and RecomputeAll
	// does not re-add them, so bestMin can miss the allocation's true
	// minimum in the last bit.
	final, err := EvaluateMinEE(net, p, bestAlloc, model.ModeExact)
	if err != nil {
		return model.Allocation{}, rep, err
	}
	rep.FinalMinEE = final
	//eflora:nondeterminism-ok Report.Elapsed is a wall-clock diagnostic (Fig. 10); it never feeds the allocation
	rep.Elapsed = time.Since(start)
	return bestAlloc, rep, nil
}

// refine runs the two-phase greedy passes on an evaluator and returns the
// converged minimum EE. Phase 1 fixes transmission power at its starting
// value and optimizes spreading factors and channels — the structural
// moves with the largest max-min gains. Phase 2 opens the full (SF, TP,
// channel) space. Every committed move raises the network minimum, so
// phase 2 can only improve on phase 1; running TP moves from a cold start
// instead lets micro power-reduction gains drag the whole network into a
// no-fading-margin basin long before the structural moves have been found.
//
//eflora:hotpath
func (a *EFLoRa) refine(ev *model.Evaluator, gains [][]float64, order []int, p model.Params, rep *Report) (float64, error) {
	phases := [][]float64{{p.Plan.MaxTxPowerDBm}, a.tpLevels(p.Plan)}
	if a.opts.FixedTPdBm != nil {
		phases = [][]float64{{*a.opts.FixedTPdBm}}
	}
	nch := p.Plan.NumChannels()

	cur, _ := ev.MinEE()
	for _, tpLevels := range phases {
		for pass := 0; pass < a.opts.MaxPasses; pass++ {
			rep.Passes++
			before := cur
			for _, i := range order {
				if c, ok := greedyStep(ev, gains, i, tpLevels, nch, cur, false, rep); ok {
					if err := ev.SetDevice(i, c.sf, c.tp, c.ch); err != nil {
						return 0, err
					}
					rep.Improvements++
					cur, _ = ev.MinEE()
				}
			}
			// Flush the second-order staleness (capacity factor) before
			// judging convergence.
			ev.RecomputeAll()
			cur, _ = ev.MinEE()
			if before <= 0 {
				if cur <= 0 {
					break
				}
				continue
			}
			if (cur-before)/before <= a.opts.Delta {
				break
			}
		}
	}
	return cur, nil
}

// candidate is one (SF, TP, channel) assignment of a device.
type candidate struct {
	sf lora.SF
	tp float64
	ch int
}

// greedyStep is the single-device greedy step shared by the flat greedy's
// passes and Incremental's reassignments. It scans device i's feasible
// (SF, TP, channel) candidates in enumeration order (SF, then TP level,
// then channel) and returns the first one attaining the largest network
// minimum strictly above cur, and whether any did. With keepCurrent false
// i's committed assignment is not a candidate. It adds the candidates it
// enumerates and evaluates to rep.
//
// Candidates that ev.BlockingGroups rules out at cur are counted but not
// evaluated. Each of them would have made MinEEIfAbove return at most its
// threshold, and the threshold — the running best — never drops below
// cur, so none of them could have become the winner: the scan picks the
// same move a full scan does, at a few percent of the evaluations.
//
//eflora:hotpath
func greedyStep(ev *model.Evaluator, gains [][]float64, i int, tpLevels []float64, nch int, cur float64, keepCurrent bool, rep *Report) (candidate, bool) {
	curSF, curTP, curCh := ev.Assignment(i)
	blocking, onlySF, onlyCh := ev.BlockingGroups(i, cur)
	gainDB := model.BestGainDB(gains, i)
	best, bestEE, found := candidate{sf: curSF, tp: curTP, ch: curCh}, cur, false
	for _, sf := range lora.SFs() {
		for _, tp := range tpLevels {
			if !model.FeasibleDB(gainDB, sf, tp) {
				continue
			}
			for ch := 0; ch < nch; ch++ {
				if !keepCurrent && sf == curSF && tp == curTP && ch == curCh {
					continue
				}
				rep.CandidatesTried++
				if blocking > 1 || (blocking == 1 && (sf != onlySF || ch != onlyCh)) {
					continue
				}
				rep.CandidatesEvaluated++
				if got := ev.MinEEIfAbove(i, sf, tp, ch, bestEE); got > bestEE {
					best, bestEE, found = candidate{sf: sf, tp: tp, ch: ch}, got, true
				}
			}
		}
	}
	return best, found
}

// densityRadiusM is the neighborhood radius of the density-first device
// ordering.
const densityRadiusM = 500

// deviceOrder returns the visiting order: density-first (most contended
// devices first, the paper's boost) or seeded-random for the ablation.
func (a *EFLoRa) deviceOrder(net *model.Network, r *rng.RNG) []int {
	n := net.N()
	if a.opts.RandomOrder {
		if r == nil {
			r = rng.New(0)
		}
		return r.Perm(n)
	}
	counts := geo.NeighborCounts(net.Devices, densityRadiusM)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return counts[order[x]] > counts[order[y]]
	})
	return order
}

// initialAllocation builds Alloc_0: each device on its minimum feasible SF
// with channels balanced per SF. Power starts at the maximum: the greedy
// then *lowers* power where that raises the network minimum (a cheaper
// bottleneck or less interference onto it). Starting at the minimum
// feasible power instead would leave no Rayleigh-fading margin anywhere,
// and a max-min greedy cannot climb out of a uniformly unreliable start
// because raising a non-bottleneck device never improves the minimum.
func (a *EFLoRa) initialAllocation(net *model.Network, p model.Params, gains [][]float64) model.Allocation {
	n := net.N()
	alloc := model.NewAllocation(n, p.Plan)
	nch := p.Plan.NumChannels()
	load := make(map[lora.SF][]int, 6)
	for _, s := range lora.SFs() {
		load[s] = make([]int, nch)
	}
	for i := 0; i < n; i++ {
		sf, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			sf = lora.MaxSF
		}
		alloc.SF[i] = sf
		tp := p.Plan.MaxTxPowerDBm
		if a.opts.FixedTPdBm != nil {
			tp = *a.opts.FixedTPdBm
		}
		alloc.TPdBm[i] = tp
		// Least-loaded channel for this SF keeps initial groups balanced.
		best := 0
		for c := 1; c < nch; c++ {
			if load[sf][c] < load[sf][best] {
				best = c
			}
		}
		alloc.Channel[i] = best
		load[sf][best]++
	}
	return alloc
}

// initialBalanced builds the collision-balanced starting point: every
// (SF, channel) group gets as equal a population as feasibility allows.
// Devices with the tightest feasibility bound (largest minimum SF) choose
// first so their limited options are not consumed by flexible devices.
// Under duty-cycle traffic the collision exposure of a group depends only
// on its population and visibility, making this start near-optimal for
// congestion; minTP additionally starts power at the lowest level that
// closes the link, minimizing mutual visibility.
func (a *EFLoRa) initialBalanced(net *model.Network, p model.Params, gains [][]float64, minTP bool) model.Allocation {
	n := net.N()
	alloc := model.NewAllocation(n, p.Plan)
	nch := p.Plan.NumChannels()
	load := make(map[lora.SF][]int, 6)
	for _, s := range lora.SFs() {
		load[s] = make([]int, nch)
	}
	minSF := make([]lora.SF, n)
	order := make([]int, n)
	for i := 0; i < n; i++ {
		sf, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			sf = lora.MaxSF
		}
		minSF[i] = sf
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return minSF[order[x]] > minSF[order[y]]
	})
	for _, i := range order {
		bestSF, bestCh, bestLoad := minSF[i], 0, int(^uint(0)>>1)
		for sf := minSF[i]; sf <= lora.MaxSF; sf++ {
			for c := 0; c < nch; c++ {
				if load[sf][c] < bestLoad {
					bestSF, bestCh, bestLoad = sf, c, load[sf][c]
				}
			}
		}
		alloc.SF[i] = bestSF
		alloc.Channel[i] = bestCh
		load[bestSF][bestCh]++
		tp := p.Plan.MaxTxPowerDBm
		switch {
		case a.opts.FixedTPdBm != nil:
			tp = *a.opts.FixedTPdBm
		case minTP:
			if mtp, ok := model.MinFeasibleTP(gains, i, bestSF, p.Plan); ok {
				tp = mtp
			}
		}
		alloc.TPdBm[i] = tp
	}
	return alloc
}

// tpLevels returns the candidate transmission powers.
func (a *EFLoRa) tpLevels(plan lora.Plan) []float64 {
	if a.opts.FixedTPdBm != nil {
		return []float64{*a.opts.FixedTPdBm}
	}
	return plan.TxPowerLevels()
}

var _ Allocator = (*EFLoRa)(nil)
