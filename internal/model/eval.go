package model

import (
	"fmt"
	"math"

	"eflora/internal/lora"
	"eflora/internal/mathx"
)

// Mode names the evaluator's interference model. It has one value,
// ModeExact, and NewEvaluator rejects any other.
type Mode int

// ModeExact models the paper's collision rule directly: a packet survives
// at a gateway only if no co-SF co-channel transmission that is visible to
// that gateway overlaps it in time (the unslotted-ALOHA vulnerable window),
// matching what the packet simulator implements.
const ModeExact Mode = 1

// group aggregates the devices sharing one (SF, channel) pair.
type group struct {
	// head is the group's first member, or -1 when it is empty; the rest
	// follow through Evaluator.next. count is the number of members.
	head  int32
	count int
	// visSum[k] = Σ_j vis_{j,k} and qSum[k] = Σ_j α_j·vis_{j,k}: the
	// collision-exposure sums of the hard overlap rule.
	visSum, qSum []float64
	// minEE over members; +Inf when empty. Kept fresh by SetDevice and
	// RecomputeAll, so read paths never have to refresh it.
	minEE    float64
	minIndex int
}

// Evaluator computes per-device energy efficiency (paper Eq. 17) for a
// network under an allocation, with O(G)-per-device incremental updates so
// the greedy allocator can evaluate candidate re-allocations cheaply.
//
// Every device keeps a committed row: its per-gateway factors that depend
// on the committed allocation alone and on no candidate move. vis, q and
// fade depend only on the device's own assignment, so SetDevice rewrites
// the moved device's row at once. θ depends on every device's trial
// probability, so SetDevice and RecomputeAll bump an epoch instead, and a
// row's θ is recomputed on its first read under a new epoch.
//
// An Evaluator is not safe for concurrent use: besides SetDevice and
// RecomputeAll, the read paths MinEEIf, MinEEIfAbove and Explain refresh
// θ rows and reuse scratch buffers.
type Evaluator struct {
	net *Network
	p   Params

	n, g, nch int

	// Static caches; the per-SF arrays are indexed by sfIndex.
	gain    [][]float64 // [device][gateway] linear attenuation
	toaBySF [6]float64
	ssMW    [6]float64 // sensitivity in mW
	floorMW [6]float64 // max(SNR threshold·noise, ss): the binding reception floor
	lbits   float64

	// Current assignment.
	sf    []lora.SF
	tpDBm []float64
	tpMW  []float64
	ch    []int
	alpha []float64 // duty cycle T_i / T_g
	es    []float64 // energy per transmission attempt (J)

	// Committed rows, [device][gateway], sharing one backing array.
	vis  [][]float64 // P{signal clears sensitivity} = exp(-ss/pa)
	q    [][]float64 // α·vis, the capacity trial prob
	fade [][]float64 // exp(-floor/pa): the fading PDR
	// theta is the capacity factor θ (paper Eq. 12); row j is valid while
	// thetaEpoch[j] == epoch (see thetaRow).
	theta      [][]float64
	thetaEpoch []uint64
	epoch      uint64

	groups []group // [sfIndex*nch + channel]
	capDP  []*mathx.PoissonBinomial

	// next[j] and prev[j] are device j's neighbours in its group's member
	// list, -1 at either end: a move unlinks and links in O(1) and never
	// allocates.
	next, prev []int32

	ee []float64

	// MinEEIfAbove scratch: the last candidate's prologue, and the
	// exposure sums of the group being scanned.
	cand     prologue
	visX, qX []float64
}

// setting is one device's (SF, power) choice together with the factors
// that depend on that choice alone.
type setting struct {
	sf              lora.SF
	tpmw, alpha, es float64
	vis, fade       []float64 // per gateway, as in the committed rows
}

// prologue is a candidate move's own setting plus its per-gateway trial
// probabilities, kept for the next MinEEIfAbove call with the same device,
// SF and power. When BlockingGroups finds no group blocking a device, the
// greedy evaluates every channel of one (SF, TP) in a row, and every call
// after the first reuses the prologue.
type prologue struct {
	i     int
	tpDBm float64
	setting
	q []float64
}

// exposure is what the members of one (SF, channel) group face under the
// committed allocation or a candidate move.
type exposure struct {
	// visSum[k] and qSum[k] sum vis and α·vis at gateway k over the
	// group. With withSelf set they include the evaluated device's
	// committed row, which eeCompute subtracts.
	visSum, qSum []float64
	withSelf     bool
}

// NewEvaluator builds an evaluator for the given network, parameters and
// initial allocation. The mode must be ModeExact.
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
	if mode != ModeExact {
		return nil, fmt.Errorf("model: invalid mode %d", mode)
	}
	e := &Evaluator{
		net: net,
		p:   p,
		n:   net.N(),
		g:   net.G(),
		nch: p.Plan.NumChannels(),
	}
	e.lbits = p.AppPayloadBits()
	noiseMW := lora.DBmToMilliwatts(p.NoiseDBm)
	for _, s := range lora.SFs() {
		si := sfIndex(s)
		thLin := lora.DBToLinear(lora.SNRThresholdDB(s))
		e.toaBySF[si] = p.TimeOnAir(s)
		e.ssMW[si] = lora.DBmToMilliwatts(lora.SensitivityDBm(s))
		e.floorMW[si] = math.Max(thLin*noiseMW, e.ssMW[si])
	}
	e.gain = Gains(net, p)

	e.sf = make([]lora.SF, e.n)
	e.tpDBm = make([]float64, e.n)
	e.tpMW = make([]float64, e.n)
	e.ch = make([]int, e.n)
	e.alpha = make([]float64, e.n)
	e.es = make([]float64, e.n)
	e.ee = make([]float64, e.n)
	e.thetaEpoch = make([]uint64, e.n)
	// One backing array for every per-gateway row and buffer: the
	// committed rows, the groups' sums and the scratch.
	ng := len(lora.SFs()) * e.nch
	buf := make([]float64, (4*e.n+2*ng+5)*e.g)
	row := func() []float64 {
		r := buf[:e.g:e.g]
		buf = buf[e.g:]
		return r
	}
	e.vis = make([][]float64, e.n)
	e.q = make([][]float64, e.n)
	e.fade = make([][]float64, e.n)
	e.theta = make([][]float64, e.n)
	for i := 0; i < e.n; i++ {
		e.vis[i], e.q[i], e.fade[i], e.theta[i] = row(), row(), row(), row()
	}
	e.groups = make([]group, ng)
	for gi := range e.groups {
		e.groups[gi] = group{
			head:     -1,
			visSum:   row(),
			qSum:     row(),
			minEE:    math.Inf(1),
			minIndex: -1,
		}
	}
	e.next = make([]int32, e.n)
	e.prev = make([]int32, e.n)
	e.cand = prologue{i: -1, setting: setting{vis: row(), fade: row()}, q: row()}
	e.visX, e.qX = row(), row()
	copy(e.sf, alloc.SF)
	copy(e.tpDBm, alloc.TPdBm)
	copy(e.ch, alloc.Channel)

	for i := 0; i < e.n; i++ {
		e.tpMW[i] = lora.DBmToMilliwatts(e.tpDBm[i])
		toa := e.toaBySF[sfIndex(e.sf[i])]
		interval := p.IntervalFor(net, i, e.sf[i])
		e.alpha[i] = math.Min(1, toa/interval)
		e.es[i] = p.Profile.TransmissionEnergy(e.tpDBm[i], toa)
		e.linkFactors(i, e.sf[i], e.tpMW[i], e.alpha[i], e.vis[i], e.q[i], e.fade[i])
		gr := e.groupOf(e.sf[i], e.ch[i])
		e.link(gr, i)
		for k := 0; k < e.g; k++ {
			gr.visSum[k] += e.vis[i][k]
			gr.qSum[k] += e.q[i][k]
		}
	}
	e.capDP = make([]*mathx.PoissonBinomial, e.g)
	for k := 0; k < e.g; k++ {
		e.capDP[k] = mathx.NewPoissonBinomial(e.p.GatewayCapacity)
	}
	e.RecomputeAll()
	return e, nil
}

func sfIndex(s lora.SF) int { return int(s) - int(lora.SF7) }

func (e *Evaluator) groupOf(s lora.SF, c int) *group { return &e.groups[sfIndex(s)*e.nch+c] }

// link puts device i at the head of gr's member list.
func (e *Evaluator) link(gr *group, i int) {
	e.prev[i], e.next[i] = -1, gr.head
	if gr.head >= 0 {
		e.prev[gr.head] = int32(i)
	}
	gr.head = int32(i)
	gr.count++
}

// unlink takes device i, a member, out of gr's member list.
func (e *Evaluator) unlink(gr *group, i int) {
	prev, next := e.prev[i], e.next[i]
	if prev >= 0 {
		e.next[prev] = next
	} else {
		gr.head = next
	}
	if next >= 0 {
		e.prev[next] = prev
	}
	gr.count--
}

// linkFactors fills device i's per-gateway factors for SF s at tpmw mW
// with duty cycle alpha: vis[k] = P{the signal clears the sensitivity
// under Rayleigh fading} = exp(-ss_s/(p·a)), q[k] = alpha·vis[k] and
// fade[k] = exp(-floor_s/(p·a)). All three are 0 where p·a <= 0.
func (e *Evaluator) linkFactors(i int, s lora.SF, tpmw, alpha float64, vis, q, fade []float64) {
	si := sfIndex(s)
	for k, g := range e.gain[i] {
		pa := tpmw * g
		if pa <= 0 {
			vis[k], q[k], fade[k] = 0, 0, 0
			continue
		}
		vis[k] = math.Exp(-e.ssMW[si] / pa)
		q[k] = alpha * vis[k]
		fade[k] = math.Exp(-e.floorMW[si] / pa)
	}
}

// thetaRow returns device j's committed capacity factors θ_jk (paper
// Eq. 12): the probability that at most C−1 of the other devices' trials
// at gateway k succeed. The row is recomputed on its first read after a
// commit or flush has changed the capacity distributions.
//
//eflora:hotpath
func (e *Evaluator) thetaRow(j int) []float64 {
	row := e.theta[j]
	if e.thetaEpoch[j] != e.epoch {
		for k := range row {
			row[k] = e.capDP[k].ProbAtMostExcluding(e.q[j][k], e.p.GatewayCapacity-1)
		}
		e.thetaEpoch[j] = e.epoch
	}
	return row
}

// committed returns device j's committed setting.
func (e *Evaluator) committed(j int) setting {
	return setting{sf: e.sf[j], tpmw: e.tpMW[j], alpha: e.alpha[j], es: e.es[j], vis: e.vis[j], fade: e.fade[j]}
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

// eeCompute returns the energy efficiency of device i using setting s in
// a group whose exposure is x. The gateway-capacity factor is i's
// committed θ row, which excludes i's currently registered trial
// probability.
//
//eflora:hotpath
func (e *Evaluator) eeCompute(i int, s *setting, x *exposure) float64 {
	theta := e.thetaRow(i)
	prodFail := 1.0
	// Collision survival is a SHARED event across gateways: an
	// overlapping co-group transmission occupies the same time slice at
	// every gateway where it is visible, so modelling it independently
	// per gateway (the paper's Eq. 5 assumption) overstates the
	// diversity gain. We apply one survival factor, weighting each
	// gateway's exposure by how much this device relies on it.
	var wSum, wExposure float64
	for k, g := range e.gain[i] {
		pa := s.tpmw * g
		if pa <= 0 {
			continue
		}
		// Hard-collision model matching the simulator (and the paper's
		// stated rule): the packet survives only if no visible co-SF
		// co-channel transmission overlaps its vulnerable window of
		// ≈ T_i + T_j, i.e. per peer probability (α_i + α_j)·vis_j,
		// aggregated as exp(-(α_i·Σvis + Σα_j·vis_j)).
		visEx, qEx := x.visSum[k], x.qSum[k]
		if x.withSelf {
			visEx -= e.vis[i][k]
			qEx -= e.q[i][k]
		}
		wSum += s.vis[k]
		wExposure += s.vis[k] * (s.alpha*visEx + qEx)
		prodFail *= 1 - theta[k]*s.fade[k]
	}
	prr := 1 - prodFail
	if wSum > 0 {
		prr *= math.Exp(-wExposure / wSum)
	}
	if e.p.Objective == ObjectiveThroughput {
		// Future-work variant: delivered bits per second.
		return e.lbits * prr / e.p.IntervalFor(e.net, i, s.sf)
	}
	return e.lbits * prr / s.es
}

// RecomputeAll refreshes every cached quantity: the capacity
// distributions, every device's θ row and EE, and every group's minimum.
// Call it at allocator pass boundaries to flush the second-order
// staleness that incremental updates leave in the capacity factor.
func (e *Evaluator) RecomputeAll() {
	e.rebuildCapacity()
	e.epoch++
	for gi := range e.groups {
		e.refreshGroup(&e.groups[gi])
	}
}

// refreshGroup recomputes the EE of every member of gr and the group
// minimum. Ties on the minimum break toward the lowest device index, so
// the result does not depend on member order.
//
//eflora:hotpath
func (e *Evaluator) refreshGroup(gr *group) {
	gr.minEE = math.Inf(1)
	gr.minIndex = -1
	x := exposure{visSum: gr.visSum, qSum: gr.qSum, withSelf: true}
	for j := int(gr.head); j >= 0; j = int(e.next[j]) {
		s := e.committed(j)
		e.ee[j] = e.eeCompute(j, &s, &x)
		if e.ee[j] < gr.minEE || (e.ee[j] == gr.minEE && j < gr.minIndex) {
			gr.minEE = e.ee[j]
			gr.minIndex = j
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
	for gi := range e.groups {
		if gr := &e.groups[gi]; gr.minEE < min {
			min, idx = gr.minEE, gr.minIndex
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

// candidate returns device i's prologue for a move to (sf, tpDBm). It
// reuses the previous call's when that was for the same device, SF and
// power.
func (e *Evaluator) candidate(i int, sf lora.SF, tpDBm float64) *prologue {
	c := &e.cand
	if c.i == i && c.sf == sf && c.tpDBm == tpDBm {
		return c
	}
	toa := e.toaBySF[sfIndex(sf)]
	c.i, c.sf, c.tpDBm = i, sf, tpDBm
	c.tpmw = lora.DBmToMilliwatts(tpDBm)
	c.es = e.p.Profile.TransmissionEnergy(tpDBm, toa)
	c.alpha = math.Min(1, toa/e.p.IntervalFor(e.net, i, sf))
	e.linkFactors(i, sf, c.tpmw, c.alpha, c.vis, c.q, c.fade)
	return c
}

// MinEEIfAbove is MinEEIf with an early-abort threshold: as soon as the
// running minimum falls to the threshold or below, it returns immediately
// with that value. The greedy allocator only cares whether a candidate
// beats the current best, so most candidates are rejected after O(G) work
// instead of a full scan of the affected groups.
//
//eflora:hotpath
func (e *Evaluator) MinEEIfAbove(i int, sf lora.SF, tpDBm float64, ch int, threshold float64) float64 {
	c := e.candidate(i, sf, tpDBm)
	oldGr, newGr := e.groupOf(e.sf[i], e.ch[i]), e.groupOf(sf, ch)
	same := oldGr == newGr

	// Candidate EE of device i itself: its committed contribution stays
	// in the new group's exposure sums only if it stays in the group.
	x := exposure{visSum: newGr.visSum, qSum: newGr.qSum, withSelf: same}
	min := e.eeCompute(i, &c.setting, &x)
	if min <= threshold {
		return min
	}

	// Fold in the untouched groups' cached minima before the expensive
	// member scans: if any of them is already at or below the threshold
	// the candidate cannot win and we bail out after O(1) work per group.
	for gi := range e.groups {
		gr := &e.groups[gi]
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

	if same {
		// Same group, possibly different TP: peers see i's exposure
		// change.
		for k := 0; k < e.g; k++ {
			e.visX[k] = newGr.visSum[k] - e.vis[i][k] + c.vis[k]
			e.qX[k] = newGr.qSum[k] - e.q[i][k] + c.q[k]
		}
		x = exposure{visSum: e.visX, qSum: e.qX, withSelf: true}
		return e.membersMin(newGr, i, &x, min, threshold)
	}
	// Members of the old group (i leaves): exposure minus i's old
	// contribution.
	for k := 0; k < e.g; k++ {
		e.visX[k] = oldGr.visSum[k] - e.vis[i][k]
		e.qX[k] = oldGr.qSum[k] - e.q[i][k]
	}
	x = exposure{visSum: e.visX, qSum: e.qX, withSelf: true}
	if min = e.membersMin(oldGr, i, &x, min, threshold); min <= threshold {
		return min
	}
	// Members of the new group (i joins): exposure plus i's new
	// contribution.
	for k := 0; k < e.g; k++ {
		e.visX[k] = newGr.visSum[k] + c.vis[k]
		e.qX[k] = newGr.qSum[k] + c.q[k]
	}
	x = exposure{visSum: e.visX, qSum: e.qX, withSelf: true}
	return e.membersMin(newGr, i, &x, min, threshold)
}

// membersMin folds into min the EE of every member of gr other than
// device i under exposure x, returning as soon as the running minimum
// falls to threshold or below. The scan order does not matter: a full
// scan computes an order-independent minimum, and a caller discards the
// exact value of any return at or below its threshold.
//
//eflora:hotpath
func (e *Evaluator) membersMin(gr *group, i int, x *exposure, min, threshold float64) float64 {
	for j := int(gr.head); j >= 0; j = int(e.next[j]) {
		if j == i {
			continue
		}
		s := e.committed(j)
		if ee := e.eeCompute(j, &s, x); ee < min {
			min = ee
			if min <= threshold {
				return min
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
	for gi := range e.groups {
		if gr := &e.groups[gi]; gr == own || !(gr.minEE <= t) {
			continue
		}
		if n == 1 {
			return 2, sf, ch
		}
		n, sf, ch = 1, lora.SF7+lora.SF(gi/e.nch), gi%e.nch
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
	oldGr, newGr := e.groupOf(e.sf[i], e.ch[i]), e.groupOf(sf, ch)
	tpmw := lora.DBmToMilliwatts(tpDBm)

	// Remove i's old footprint.
	for k := 0; k < e.g; k++ {
		oldGr.visSum[k] -= e.vis[i][k]
		oldGr.qSum[k] -= e.q[i][k]
		e.capDP[k].Remove(e.q[i][k])
	}
	e.unlink(oldGr, i)

	// Apply the new assignment.
	e.sf[i] = sf
	e.tpDBm[i] = tpDBm
	e.tpMW[i] = tpmw
	e.ch[i] = ch
	toa := e.toaBySF[sfIndex(sf)]
	interval := e.p.IntervalFor(e.net, i, sf)
	e.alpha[i] = math.Min(1, toa/interval)
	e.es[i] = e.p.Profile.TransmissionEnergy(tpDBm, toa)
	e.linkFactors(i, sf, tpmw, e.alpha[i], e.vis[i], e.q[i], e.fade[i])
	for k := 0; k < e.g; k++ {
		newGr.visSum[k] += e.vis[i][k]
		newGr.qSum[k] += e.q[i][k]
		e.capDP[k].Add(e.q[i][k])
	}
	e.link(newGr, i)

	// The capacity distributions changed, so every θ row is stale.
	e.epoch++
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
