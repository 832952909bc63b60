package model

import (
	"fmt"
	"math"

	"eflora/internal/lora"
	"eflora/internal/mathx"
)

// Mode selects how the evaluator computes the co-SF interference term of
// the PDR.
type Mode int

const (
	// ModeExact models the paper's collision rule directly: a packet
	// survives at a gateway only if no co-SF co-channel transmission that
	// is visible to that gateway overlaps it in time (the unslotted-ALOHA
	// vulnerable window), matching what the packet simulator implements.
	ModeExact Mode = iota + 1
	// ModePPP is the paper's reduced-overhead formulation (Eq. 18-20):
	// co-SF interference enters the SNR through the Laplace transform of
	// a Poisson point process of the group's density.
	ModePPP
)

// group aggregates the devices sharing one (SF, channel) pair.
type group struct {
	count   int
	members map[int]struct{}
	// sumPG[k] = Σ_{j in group} p_j·gain_{j,k} (mW): the mean co-channel
	// power used by the inter-SF soft-interference extension.
	sumPG []float64
	// visSum[k] = Σ_j vis_{j,k} and qSum[k] = Σ_j α_j·vis_{j,k}: the
	// collision-exposure sums of the hard overlap rule.
	visSum, qSum []float64
	// minEE over members; +Inf when empty. Kept fresh by SetDevice and
	// RecomputeAll, so read paths never have to refresh it.
	minEE    float64
	minIndex int
}

// Evaluator computes per-device energy efficiency (paper Eq. 17/18) for a
// network under an allocation, with O(G)-per-device incremental updates so
// the greedy allocator can evaluate candidate re-allocations cheaply.
//
// An Evaluator is not safe for concurrent mutation, but the read-only
// methods — EE, EEAll, PRR, MinEE, MinEEIf, MinEEIfAbove, BlockingGroups,
// Assignment, Allocation — never write to the evaluator and may be called
// from multiple goroutines at once, as long as no SetDevice or
// RecomputeAll runs concurrently.
type Evaluator struct {
	net  *Network
	p    Params
	mode Mode

	n, g, nch int

	// Static caches.
	gain    [][]float64 // [device][gateway] linear attenuation
	toaBySF map[lora.SF]float64
	thLin   map[lora.SF]float64 // linear SNR threshold
	ssMW    map[lora.SF]float64 // sensitivity in mW
	noiseMW float64
	lbits   float64
	density float64 // devices per m² (for ModePPP)

	// Current assignment.
	sf    []lora.SF
	tpDBm []float64
	tpMW  []float64
	ch    []int
	alpha []float64   // duty cycle T_i / T_g
	es    []float64   // energy per transmission attempt (J)
	vis   [][]float64 // [device][gateway] P{signal clears sensitivity}
	q     [][]float64 // [device][gateway] α·vis, the capacity trial prob

	groups [][]*group // [sfIndex][channel]
	chSum  [][]float64
	capDP  []*mathx.PoissonBinomial

	interSFRej float64 // linear rejection factor; 0 disables

	ee []float64
}

// NewEvaluator builds an evaluator for the given network, parameters and
// initial allocation. The mode selects exact or PPP interference handling.
func NewEvaluator(net *Network, p Params, alloc Allocation, mode Mode) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(p); err != nil {
		return nil, err
	}
	if err := alloc.Validate(net.N(), p); err != nil {
		return nil, err
	}
	if mode != ModeExact && mode != ModePPP {
		return nil, fmt.Errorf("model: invalid mode %d", mode)
	}
	e := &Evaluator{
		net:  net,
		p:    p,
		mode: mode,
		n:    net.N(),
		g:    net.G(),
		nch:  p.Plan.NumChannels(),
	}
	e.lbits = p.AppPayloadBits()
	e.noiseMW = lora.DBmToMilliwatts(p.NoiseDBm)
	if p.InterSFRejectionDB > 0 {
		e.interSFRej = lora.DBToLinear(-p.InterSFRejectionDB)
	}
	e.toaBySF = make(map[lora.SF]float64, 6)
	e.thLin = make(map[lora.SF]float64, 6)
	e.ssMW = make(map[lora.SF]float64, 6)
	for _, s := range lora.SFs() {
		e.toaBySF[s] = p.TimeOnAir(s)
		e.thLin[s] = lora.DBToLinear(lora.SNRThresholdDB(s))
		e.ssMW[s] = lora.DBmToMilliwatts(lora.SensitivityDBm(s))
	}
	e.gain = Gains(net, p)
	e.density = deviceDensity(net)

	e.sf = make([]lora.SF, e.n)
	e.tpDBm = make([]float64, e.n)
	e.tpMW = make([]float64, e.n)
	e.ch = make([]int, e.n)
	e.alpha = make([]float64, e.n)
	e.es = make([]float64, e.n)
	e.vis = make([][]float64, e.n)
	e.q = make([][]float64, e.n)
	// One backing array for all vis/q rows: per-row make calls were half
	// the allocator's per-evaluator allocation count.
	visq := make([]float64, 2*e.n*e.g)
	for i := 0; i < e.n; i++ {
		e.vis[i] = visq[2*i*e.g : (2*i+1)*e.g : (2*i+1)*e.g]
		e.q[i] = visq[(2*i+1)*e.g : (2*i+2)*e.g : (2*i+2)*e.g]
	}
	e.ee = make([]float64, e.n)
	copy(e.sf, alloc.SF)
	copy(e.tpDBm, alloc.TPdBm)
	copy(e.ch, alloc.Channel)

	e.groups = make([][]*group, 6)
	for si := range e.groups {
		e.groups[si] = make([]*group, e.nch)
		for c := range e.groups[si] {
			e.groups[si][c] = &group{
				members:  make(map[int]struct{}),
				sumPG:    make([]float64, e.g),
				visSum:   make([]float64, e.g),
				qSum:     make([]float64, e.g),
				minEE:    math.Inf(1),
				minIndex: -1,
			}
		}
	}
	e.chSum = make([][]float64, e.nch)
	for c := range e.chSum {
		e.chSum[c] = make([]float64, e.g)
	}

	for i := 0; i < e.n; i++ {
		e.tpMW[i] = lora.DBmToMilliwatts(e.tpDBm[i])
		toa := e.toaBySF[e.sf[i]]
		interval := p.IntervalFor(net, i, e.sf[i])
		e.alpha[i] = math.Min(1, toa/interval)
		e.es[i] = p.Profile.TransmissionEnergy(e.tpDBm[i], toa)
		gr := e.groupOf(e.sf[i], e.ch[i])
		gr.count++
		gr.members[i] = struct{}{}
		for k := 0; k < e.g; k++ {
			v := e.visibility(i, k, e.sf[i], e.tpMW[i])
			e.vis[i][k] = v
			e.q[i][k] = e.alpha[i] * v
			gr.sumPG[k] += e.tpMW[i] * e.gain[i][k]
			gr.visSum[k] += v
			gr.qSum[k] += e.q[i][k]
			e.chSum[e.ch[i]][k] += e.tpMW[i] * e.gain[i][k]
		}
	}
	e.capDP = make([]*mathx.PoissonBinomial, e.g)
	for k := 0; k < e.g; k++ {
		e.capDP[k] = mathx.NewPoissonBinomial(e.p.GatewayCapacity)
	}
	e.rebuildCapacity()
	e.RecomputeAll()
	return e, nil
}

// deviceDensity estimates devices per square meter from the deployment's
// bounding circle around its centroid.
func deviceDensity(net *Network) float64 {
	var cx, cy float64
	for _, d := range net.Devices {
		cx += d.X
		cy += d.Y
	}
	nf := float64(len(net.Devices))
	cx /= nf
	cy /= nf
	maxR := 1.0
	for _, d := range net.Devices {
		r := math.Hypot(d.X-cx, d.Y-cy)
		if r > maxR {
			maxR = r
		}
	}
	return nf / (math.Pi * maxR * maxR)
}

func sfIndex(s lora.SF) int { return int(s) - int(lora.SF7) }

func (e *Evaluator) groupOf(s lora.SF, c int) *group { return e.groups[sfIndex(s)][c] }

// visibility returns P{device i's signal clears gateway k's sensitivity
// for SF s under Rayleigh fading} = exp(-ss_s/(p·a)).
func (e *Evaluator) visibility(i, k int, s lora.SF, tpmw float64) float64 {
	pa := tpmw * e.gain[i][k]
	if pa <= 0 {
		return 0
	}
	return math.Exp(-e.ssMW[s] / pa)
}

// rebuildCapacity recomputes every per-gateway Poisson-binomial capacity
// distribution from scratch, clearing any numerical drift from incremental
// removals. The DP tables are allocated once in NewEvaluator and reset in
// place here, keeping refinement passes allocation-free.
func (e *Evaluator) rebuildCapacity() {
	for _, dp := range e.capDP {
		dp.Reset()
	}
	for i := 0; i < e.n; i++ {
		for k := 0; k < e.g; k++ {
			e.capDP[k].Add(e.q[i][k])
		}
	}
}

// eeCompute returns the energy efficiency of device i if it used (sf,
// tpmw) in a group of `total` devices, where collExposure(k) returns the
// group's (visSum, qSum) at gateway k excluding i's own contribution, and
// interSum(k) the co-channel other-SF mean power excluding i (used only
// when the inter-SF extension is on). The gateway-capacity factor excludes
// i's currently registered trial probability.
//
//eflora:hotpath
func (e *Evaluator) eeCompute(
	i int, sf lora.SF, tpmw float64, total int,
	collExposure func(k int) (visEx, qEx float64),
	interSum func(k int) float64, es float64,
) float64 {
	interval := e.p.IntervalFor(e.net, i, sf)
	alpha := math.Min(1, e.toaBySF[sf]/interval)
	th := e.thLin[sf]
	ss := e.ssMW[sf]
	floorMW := math.Max(th*e.noiseMW, ss)
	prodFail := 1.0
	// Collision survival is a SHARED event across gateways: an
	// overlapping co-group transmission occupies the same time slice at
	// every gateway where it is visible, so modelling it independently
	// per gateway (the paper's Eq. 5 assumption) overstates the
	// diversity gain. We apply one survival factor, weighting each
	// gateway's exposure by how much this device relies on it.
	var wSum, wExposure float64
	for k := 0; k < e.g; k++ {
		pa := tpmw * e.gain[i][k]
		if pa <= 0 {
			continue
		}
		var pdr float64
		if e.mode == ModePPP {
			// Paper Eq. 18: the Laplace transform of PPP interference of
			// the group's density takes the place of the explicit
			// collision term. h is the paper's Eq. 14 contention factor.
			h := 1 - math.Exp(-alpha*float64(total))
			lambdaSC := e.density * float64(total) / float64(e.n)
			env := e.p.Environments[e.net.EnvOf(i)]
			l := mathx.LaplacePPPInterference(th*h/pa, tpmw*env.Amplitude(), lambdaSC, env.Exponent)
			pdr = l * math.Exp(-floorMW/pa)
		} else {
			// Hard-collision model matching the simulator (and the
			// paper's stated rule): the packet survives only if no
			// visible co-SF co-channel transmission overlaps its
			// vulnerable window of ≈ T_i + T_j, i.e. per peer
			// probability (α_i + α_j)·vis_j, aggregated as
			// exp(-(α_i·Σvis + Σα_j·vis_j)).
			visEx, qEx := collExposure(k)
			visOwn := math.Exp(-ss / pa)
			wSum += visOwn
			wExposure += visOwn * (alpha*visEx + qEx)
			snrFloor := floorMW
			if e.interSFRej > 0 {
				// Imperfect-orthogonality extension: co-channel other-SF
				// power leaks into the SNR denominator, attenuated by
				// the rejection factor and scaled by the overlap
				// fraction.
				h := 1 - math.Exp(-alpha*float64(total))
				snrFloor = math.Max(th*(e.noiseMW+e.interSFRej*h*interSum(k)), ss)
			}
			pdr = math.Exp(-snrFloor / pa)
		}
		theta := e.capDP[k].ProbAtMostExcluding(e.q[i][k], e.p.GatewayCapacity-1)
		prodFail *= 1 - theta*pdr
	}
	prr := 1 - prodFail
	if e.mode == ModeExact && wSum > 0 {
		prr *= math.Exp(-wExposure / wSum)
	}
	if e.p.Objective == ObjectiveThroughput {
		// Future-work variant: delivered bits per second.
		return e.lbits * prr / interval
	}
	return e.lbits * prr / es
}

// eeOf computes device i's EE under the committed allocation.
//
//eflora:hotpath
func (e *Evaluator) eeOf(i int) float64 {
	gr := e.groupOf(e.sf[i], e.ch[i])
	c := e.ch[i]
	return e.eeCompute(i, e.sf[i], e.tpMW[i], gr.count,
		func(k int) (float64, float64) {
			return gr.visSum[k] - e.vis[i][k], gr.qSum[k] - e.q[i][k]
		},
		func(k int) float64 {
			return e.chSum[c][k] - gr.sumPG[k]
		},
		e.es[i])
}

// RecomputeAll refreshes every cached quantity: the capacity
// distributions, every device's EE and every group's minimum. Call it at
// allocator pass boundaries to flush the second-order staleness that
// incremental updates leave in the capacity factor.
func (e *Evaluator) RecomputeAll() {
	e.rebuildCapacity()
	for si := range e.groups {
		for _, gr := range e.groups[si] {
			gr.minEE = math.Inf(1)
			gr.minIndex = -1
		}
	}
	for i := 0; i < e.n; i++ {
		e.ee[i] = e.eeOf(i)
		gr := e.groupOf(e.sf[i], e.ch[i])
		if e.ee[i] < gr.minEE {
			gr.minEE = e.ee[i]
			gr.minIndex = i
		}
	}
}

// refreshGroup recomputes EE for every member of the group and its min.
//
//eflora:hotpath
func (e *Evaluator) refreshGroup(gr *group) {
	gr.minEE = math.Inf(1)
	gr.minIndex = -1
	// Every member is visited exactly once and ties on minEE break toward
	// the lowest device index, so the outcome does not depend on Go's
	// randomized map order (RecomputeAll, which iterates devices in
	// ascending order, must agree with this on exact-EE ties).
	//eflora:nondeterminism-ok order-independent: all members updated; min tie-broken on device index
	for i := range gr.members {
		e.ee[i] = e.eeOf(i)
		if e.ee[i] < gr.minEE || (e.ee[i] == gr.minEE && i < gr.minIndex) {
			gr.minEE = e.ee[i]
			gr.minIndex = i
		}
	}
}

// EE returns the cached energy efficiency of device i in bits per joule.
func (e *Evaluator) EE(i int) float64 { return e.ee[i] }

// EEAll returns a copy of all cached per-device energy efficiencies.
func (e *Evaluator) EEAll() []float64 {
	out := make([]float64, e.n)
	copy(out, e.ee)
	return out
}

// MinEE returns the network's minimum energy efficiency and the device
// attaining it — the objective of the paper's Eq. 1.
func (e *Evaluator) MinEE() (float64, int) {
	min, idx := math.Inf(1), -1
	for si := range e.groups {
		for _, gr := range e.groups[si] {
			if gr.minEE < min {
				min, idx = gr.minEE, gr.minIndex
			}
		}
	}
	return min, idx
}

// Assignment returns device i's committed (SF, TP dBm, channel) without
// snapshotting the whole allocation — the greedy's inner loop only needs
// the device it is about to re-optimize.
func (e *Evaluator) Assignment(i int) (lora.SF, float64, int) {
	return e.sf[i], e.tpDBm[i], e.ch[i]
}

// Allocation returns a snapshot of the committed allocation.
func (e *Evaluator) Allocation() Allocation {
	a := Allocation{
		SF:      make([]lora.SF, e.n),
		TPdBm:   make([]float64, e.n),
		Channel: make([]int, e.n),
	}
	copy(a.SF, e.sf)
	copy(a.TPdBm, e.tpDBm)
	copy(a.Channel, e.ch)
	return a
}

// MinEEIf evaluates the network minimum EE if device i were reassigned to
// (sf, tpDBm, ch), without committing the change. The capacity factor θ is
// held at its committed value (a second-order effect refreshed by
// RecomputeAll at pass boundaries).
func (e *Evaluator) MinEEIf(i int, sf lora.SF, tpDBm float64, ch int) float64 {
	return e.MinEEIfAbove(i, sf, tpDBm, ch, math.Inf(-1))
}

// MinEEIfAbove is MinEEIf with an early-abort threshold: as soon as the
// running minimum falls to the threshold or below, it returns immediately
// with that value. The greedy allocator only cares whether a candidate
// beats the current best, so most candidates are rejected after O(G) work
// instead of a full scan of the affected groups.
//
//eflora:hotpath
func (e *Evaluator) MinEEIfAbove(i int, sf lora.SF, tpDBm float64, ch int, threshold float64) float64 {
	oldGr := e.groupOf(e.sf[i], e.ch[i])
	newGr := e.groupOf(sf, ch)
	tpmw := lora.DBmToMilliwatts(tpDBm)
	toa := e.toaBySF[sf]
	es := e.p.Profile.TransmissionEnergy(tpDBm, toa)
	interval := e.p.IntervalFor(e.net, i, sf)
	alphaNew := math.Min(1, toa/interval)
	oldCh, newCh := e.ch[i], ch
	same := oldGr == newGr

	// The candidate's per-gateway visibility under the new assignment.
	visNew := func(k int) float64 { return e.visibility(i, k, sf, tpmw) }
	qNew := func(k int) float64 { return alphaNew * visNew(k) }
	ownPGOld := func(k int) float64 { return e.tpMW[i] * e.gain[i][k] }
	ownPGNew := func(k int) float64 { return tpmw * e.gain[i][k] }

	// Candidate EE of device i itself: exclude its own (old or new)
	// contribution from the new group's exposure sums.
	newCount := newGr.count + 1
	if same {
		newCount = newGr.count
	}
	collI := func(k int) (float64, float64) {
		v, q := newGr.visSum[k], newGr.qSum[k]
		if same {
			v -= e.vis[i][k]
			q -= e.q[i][k]
		}
		return v, q
	}
	interI := func(k int) float64 {
		s := e.chSum[newCh][k] - newGr.sumPG[k]
		if !same && oldCh == newCh {
			s -= ownPGOld(k)
		}
		return s
	}
	min := e.eeCompute(i, sf, tpmw, newCount, collI, interI, es)
	if min <= threshold {
		return min
	}

	// Fold in the untouched groups' cached minima before the expensive
	// member scans: if any of them is already at or below the threshold
	// the candidate cannot win and we bail out after O(1) work per group.
	// When the inter-SF extension is enabled, co-channel groups of other
	// SFs are also perturbed; we accept their cached values here
	// (second-order, refreshed on commit) to keep candidate evaluation
	// O(affected).
	for si := range e.groups {
		for _, gr := range e.groups[si] {
			if gr == oldGr || gr == newGr {
				continue
			}
			if gr.minEE < min {
				min = gr.minEE
				if min <= threshold {
					return min
				}
			}
		}
	}

	if !same {
		// Members of the old group (i leaves): count-1, exposure minus
		// i's old contribution. Iterating the member set in map order is
		// safe here and below: without early abort the full scan computes
		// an order-independent minimum, and when the threshold aborts the
		// scan the caller discards the exact value (any return <= its
		// threshold means "candidate rejected").
		oldCount := oldGr.count - 1
		//eflora:nondeterminism-ok order-independent min; early-abort returns are only compared against the threshold
		for j := range oldGr.members {
			if j == i {
				continue
			}
			//eflora:alloc-ok non-escaping callback: eeCompute never retains it, proven zero-alloc by TestEvaluatorAllocBudget
			collJ := func(k int) (float64, float64) {
				return oldGr.visSum[k] - e.vis[i][k] - e.vis[j][k],
					oldGr.qSum[k] - e.q[i][k] - e.q[j][k]
			}
			// chSum[oldCh] loses i's old power and the group sum loses it
			// too, so the other-SF remainder keeps its value — except
			// that when i stays on the same channel with a new SF, its
			// new power arrives as other-SF interference.
			//eflora:alloc-ok non-escaping callback: eeCompute never retains it, proven zero-alloc by TestEvaluatorAllocBudget
			interJ := func(k int) float64 {
				s := e.chSum[oldCh][k] - oldGr.sumPG[k]
				if newCh == oldCh {
					s += ownPGNew(k)
				}
				return s
			}
			ee := e.eeCompute(j, e.sf[j], e.tpMW[j], oldCount, collJ, interJ, e.es[j])
			if ee < min {
				min = ee
				if min <= threshold {
					return min
				}
			}
		}
		// Members of the new group (i joins).
		//eflora:nondeterminism-ok order-independent min; early-abort returns are only compared against the threshold
		for j := range newGr.members {
			//eflora:alloc-ok non-escaping callback: eeCompute never retains it, proven zero-alloc by TestEvaluatorAllocBudget
			collJ := func(k int) (float64, float64) {
				return newGr.visSum[k] + visNew(k) - e.vis[j][k],
					newGr.qSum[k] + qNew(k) - e.q[j][k]
			}
			// chSum[newCh] gains i's new power and the group sum gains it
			// too, cancelling out — but when i left the same channel
			// (different SF), its old other-SF power disappears.
			//eflora:alloc-ok non-escaping callback: eeCompute never retains it, proven zero-alloc by TestEvaluatorAllocBudget
			interJ := func(k int) float64 {
				s := e.chSum[newCh][k] - newGr.sumPG[k]
				if oldCh == newCh {
					s -= ownPGOld(k)
				}
				return s
			}
			ee := e.eeCompute(j, e.sf[j], e.tpMW[j], newCount, collJ, interJ, e.es[j])
			if ee < min {
				min = ee
				if min <= threshold {
					return min
				}
			}
		}
	} else {
		// Same group, possibly different TP: peers see i's exposure
		// change.
		//eflora:nondeterminism-ok order-independent min; early-abort returns are only compared against the threshold
		for j := range newGr.members {
			if j == i {
				continue
			}
			//eflora:alloc-ok non-escaping callback: eeCompute never retains it, proven zero-alloc by TestEvaluatorAllocBudget
			collJ := func(k int) (float64, float64) {
				return newGr.visSum[k] - e.vis[i][k] + visNew(k) - e.vis[j][k],
					newGr.qSum[k] - e.q[i][k] + qNew(k) - e.q[j][k]
			}
			// chSum gains (new-old) and the group sum gains the same, so
			// the other-SF remainder is unchanged.
			//eflora:alloc-ok non-escaping callback: eeCompute never retains it, proven zero-alloc by TestEvaluatorAllocBudget
			interJ := func(k int) float64 {
				return e.chSum[newCh][k] - newGr.sumPG[k]
			}
			ee := e.eeCompute(j, e.sf[j], e.tpMW[j], newCount, collJ, interJ, e.es[j])
			if ee < min {
				min = ee
				if min <= threshold {
					return min
				}
			}
		}
	}
	return min
}

// BlockingGroups counts the (SF, channel) groups other than device i's own
// whose cached minimum EE is at or below t, stopping at two, and returns
// the SF and channel of the first one it finds. Before MinEEIfAbove can
// return a value above its threshold t it folds in the cached minimum of
// every group the move leaves untouched, so:
//   - with two or more blocking groups, no move of i can beat t;
//   - with exactly one, only moves into that group can;
//   - with none, any move can.
//
// A group at or below t stays at or below every larger threshold, so the
// verdict also holds for a scan whose threshold rises from t as it finds
// better moves. The method reads the cached group minima only and
// allocates nothing.
//
//eflora:hotpath
func (e *Evaluator) BlockingGroups(i int, t float64) (n int, sf lora.SF, ch int) {
	own := e.groupOf(e.sf[i], e.ch[i])
	for si := range e.groups {
		for c, gr := range e.groups[si] {
			if gr == own || !(gr.minEE <= t) {
				continue
			}
			if n == 1 {
				return 2, sf, ch
			}
			n, sf, ch = 1, lora.SF7+lora.SF(si), c
		}
	}
	return n, sf, ch
}

// SetDevice commits a reassignment of device i and refreshes the caches of
// the affected groups. It returns an error for invalid arguments.
//
//eflora:hotpath
func (e *Evaluator) SetDevice(i int, sf lora.SF, tpDBm float64, ch int) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("model: device index %d out of range", i)
	}
	if !sf.Valid() {
		return fmt.Errorf("model: invalid SF %d", int(sf))
	}
	if ch < 0 || ch >= e.nch {
		return fmt.Errorf("model: channel %d out of range", ch)
	}
	if tpDBm < e.p.Plan.MinTxPowerDBm-1e-9 || tpDBm > e.p.Plan.MaxTxPowerDBm+1e-9 {
		return fmt.Errorf("model: TP %v outside plan range", tpDBm)
	}
	oldGr := e.groupOf(e.sf[i], e.ch[i])
	newGr := e.groupOf(sf, ch)
	oldCh := e.ch[i]
	tpmw := lora.DBmToMilliwatts(tpDBm)

	// Remove i's old footprint.
	for k := 0; k < e.g; k++ {
		pg := e.tpMW[i] * e.gain[i][k]
		oldGr.sumPG[k] -= pg
		oldGr.visSum[k] -= e.vis[i][k]
		oldGr.qSum[k] -= e.q[i][k]
		e.chSum[oldCh][k] -= pg
		e.capDP[k].Remove(e.q[i][k])
	}
	oldGr.count--
	delete(oldGr.members, i)

	// Apply the new assignment.
	e.sf[i] = sf
	e.tpDBm[i] = tpDBm
	e.tpMW[i] = tpmw
	e.ch[i] = ch
	toa := e.toaBySF[sf]
	interval := e.p.IntervalFor(e.net, i, sf)
	e.alpha[i] = math.Min(1, toa/interval)
	e.es[i] = e.p.Profile.TransmissionEnergy(tpDBm, toa)
	for k := 0; k < e.g; k++ {
		pg := tpmw * e.gain[i][k]
		v := e.visibility(i, k, sf, tpmw)
		e.vis[i][k] = v
		e.q[i][k] = e.alpha[i] * v
		newGr.sumPG[k] += pg
		newGr.visSum[k] += v
		newGr.qSum[k] += e.q[i][k]
		e.chSum[ch][k] += pg
		e.capDP[k].Add(e.q[i][k])
	}
	newGr.count++
	newGr.members[i] = struct{}{}

	e.refreshGroup(oldGr)
	if newGr != oldGr {
		e.refreshGroup(newGr)
	}
	return nil
}

// PRR returns the packet reception ratio implied by device i's cached
// metric: for the energy-efficiency objective PRR = EE · E_s / L
// (inverting Eq. 2); for the throughput objective PRR = T · T_g / L.
func (e *Evaluator) PRR(i int) float64 {
	if e.p.Objective == ObjectiveThroughput {
		interval := e.p.IntervalFor(e.net, i, e.sf[i])
		return e.ee[i] * interval / e.lbits
	}
	return e.ee[i] * e.es[i] / e.lbits
}
