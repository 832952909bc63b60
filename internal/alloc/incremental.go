package alloc

import (
	"fmt"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
)

// Incremental maintains an EF-LoRa allocation under device additions and
// removals without re-optimizing the whole network — the incremental
// algorithm the paper's discussion section (III-E) sketches as future
// work. An added device greedily picks the (SF, TP, channel) maximizing
// the network minimum EE given everyone else's settings; removals keep the
// survivors' settings unchanged. Call Reoptimize to run the full greedy
// when enough churn has accumulated.
type Incremental struct {
	opts  Options
	p     model.Params
	net   model.Network
	alloc model.Allocation

	// Reassignment state, built lazily on the first ReassignDevice (or
	// AddDevice) and reused across calls so the reconcile path is
	// delta-based: a reassignment touches only the two (SF, channel)
	// groups it moves between (model.Evaluator.SetDevice) instead of
	// rebuilding gains and evaluator per call. Topology changes
	// (add/remove/reoptimize) invalidate all three.
	ev       *model.Evaluator
	gains    [][]float64
	tpLevels []float64
}

// NewIncremental seeds an incremental maintainer from a full allocation.
func NewIncremental(net *model.Network, p model.Params, alloc model.Allocation, opts Options) (*Incremental, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(p); err != nil {
		return nil, err
	}
	if err := alloc.Validate(net.N(), p); err != nil {
		return nil, err
	}
	inc := &Incremental{
		opts: opts.withDefaults(),
		p:    p,
		net: model.Network{
			Devices:  append([]geo.Point(nil), net.Devices...),
			Gateways: append([]geo.Point(nil), net.Gateways...),
		},
		alloc: alloc.Clone(),
	}
	if net.Env != nil {
		inc.net.Env = append([]int(nil), net.Env...)
	}
	if net.IntervalS != nil {
		inc.net.IntervalS = append([]float64(nil), net.IntervalS...)
	}
	return inc, nil
}

// invalidate drops the cached reassignment state after a topology or
// wholesale allocation change.
func (inc *Incremental) invalidate() {
	inc.ev = nil
	inc.gains = nil
	inc.tpLevels = nil
}

// ensureEval builds the cached gains matrix, evaluator and TP ladder if a
// topology change (or construction) invalidated them.
func (inc *Incremental) ensureEval() error {
	if inc.ev != nil {
		return nil
	}
	inc.gains = model.Gains(&inc.net, inc.p)
	ev, err := model.NewEvaluator(&inc.net, inc.p, inc.alloc, model.ModeExact)
	if err != nil {
		return err
	}
	inc.ev = ev
	if inc.opts.FixedTPdBm != nil {
		inc.tpLevels = []float64{*inc.opts.FixedTPdBm}
	} else {
		inc.tpLevels = inc.p.Plan.TxPowerLevels()
	}
	return nil
}

// Refresh flushes the second-order capacity staleness that delta commits
// accumulate in the cached evaluator (see model.Evaluator.RecomputeAll).
// Callers running many ReassignDevice calls — the hierarchical boundary
// reconcile — invoke it at pass boundaries, mirroring the full greedy.
func (inc *Incremental) Refresh() {
	if inc.ev != nil {
		inc.ev.RecomputeAll()
	}
}

// N returns the current number of devices.
func (inc *Incremental) N() int { return inc.net.N() }

// Allocation returns a snapshot of the current allocation.
func (inc *Incremental) Allocation() model.Allocation { return inc.alloc.Clone() }

// Assignment returns device i's current settings without copying the
// allocation; i must be in [0, N()).
func (inc *Incremental) Assignment(i int) (sf lora.SF, tpDBm float64, ch int) {
	return inc.alloc.SF[i], inc.alloc.TPdBm[i], inc.alloc.Channel[i]
}

// Network returns a copy of the current deployment.
func (inc *Incremental) Network() *model.Network {
	cp := model.Network{
		Devices:  append([]geo.Point(nil), inc.net.Devices...),
		Gateways: append([]geo.Point(nil), inc.net.Gateways...),
	}
	if inc.net.Env != nil {
		cp.Env = append([]int(nil), inc.net.Env...)
	}
	if inc.net.IntervalS != nil {
		cp.IntervalS = append([]float64(nil), inc.net.IntervalS...)
	}
	return &cp
}

// AddDevice joins a new device at pos (environment class env) and assigns
// it the resources that maximize the resulting network minimum EE while
// every existing device keeps its settings. It returns the new device's
// index. An env outside the parameters' environment classes is rejected
// before any state changes.
func (inc *Incremental) AddDevice(pos geo.Point, env int) (int, error) {
	if env < 0 || env >= len(inc.p.Environments) {
		return 0, fmt.Errorf("alloc: environment %d out of range [0,%d)", env, len(inc.p.Environments))
	}
	if inc.net.Env == nil && env != 0 {
		inc.net.Env = make([]int, inc.net.N())
	}
	inc.net.Devices = append(inc.net.Devices, pos)
	if inc.net.Env != nil {
		inc.net.Env = append(inc.net.Env, env)
	}
	if inc.net.IntervalS != nil {
		inc.net.IntervalS = append(inc.net.IntervalS, inc.p.PacketIntervalS)
	}
	i := inc.net.N() - 1

	// Provisional settings for the newcomer, then greedy improvement of
	// only that device. The gains matrix changed shape, so the cached
	// reassignment state is rebuilt (and stays warm for later reassigns).
	inc.invalidate()
	gains := model.Gains(&inc.net, inc.p)
	sf, ok := model.MinFeasibleSF(gains, i, inc.p.Plan.MaxTxPowerDBm)
	if !ok {
		sf = lora.MaxSF
	}
	tp := inc.p.Plan.MaxTxPowerDBm
	if mtp, ok := model.MinFeasibleTP(gains, i, sf, inc.p.Plan); ok {
		tp = mtp
	}
	inc.alloc.SF = append(inc.alloc.SF, sf)
	inc.alloc.TPdBm = append(inc.alloc.TPdBm, tp)
	inc.alloc.Channel = append(inc.alloc.Channel, 0)

	ev, err := model.NewEvaluator(&inc.net, inc.p, inc.alloc, model.ModeExact)
	if err != nil {
		return 0, err
	}
	inc.gains = gains
	inc.ev = ev
	if inc.opts.FixedTPdBm != nil {
		inc.tpLevels = []float64{*inc.opts.FixedTPdBm}
	} else {
		inc.tpLevels = inc.p.Plan.TxPowerLevels()
	}
	if sf, tp, ch, changed := inc.bestMove(i); changed {
		if err := inc.commit(i, sf, tp, ch); err != nil {
			return 0, err
		}
	}
	return i, nil
}

// bestMove runs the single-device greedy step for device i against the
// cached evaluator — every feasible (SF, TP, channel), i's current one
// included — and returns the move that maximizes the network minimum EE,
// and whether it differs from i's current assignment. The cached
// evaluator must be valid (ensureEval).
func (inc *Incremental) bestMove(i int) (lora.SF, float64, int, bool) {
	cur, _ := inc.ev.MinEE()
	var counts Report // reassignments report no candidate counts
	c, _ := greedyStep(inc.ev, inc.gains, i, inc.tpLevels, inc.p.Plan.NumChannels(), cur, true, &counts)
	changed := c.sf != inc.alloc.SF[i] || c.tp != inc.alloc.TPdBm[i] || c.ch != inc.alloc.Channel[i]
	return c.sf, c.tp, c.ch, changed
}

// commit applies a move to both the allocation snapshot and the cached
// evaluator, which delta-updates only the two (SF, channel) groups the
// move touches.
func (inc *Incremental) commit(i int, sf lora.SF, tp float64, ch int) error {
	if err := inc.ev.SetDevice(i, sf, tp, ch); err != nil {
		return err
	}
	inc.alloc.SF[i] = sf
	inc.alloc.TPdBm[i] = tp
	inc.alloc.Channel[i] = ch
	return nil
}

// ReassignDevice re-runs the single-device greedy for an existing device:
// holding every other device's settings fixed, device i moves to the
// (SF, TP, channel) that maximizes the network minimum EE. This is the
// online re-allocation step a live network server applies to a device
// whose observed link quality has drifted, and the hierarchical
// allocator's boundary-reconcile step. It reports whether the assignment
// changed.
//
// The first call builds the gains matrix and evaluator; subsequent calls
// reuse them, committing moves as delta updates that touch only the two
// (SF, channel) groups involved — the warm path allocates nothing. Long
// reassignment campaigns should call Refresh at pass boundaries to flush
// second-order capacity staleness.
func (inc *Incremental) ReassignDevice(i int) (bool, error) {
	n := inc.net.N()
	if i < 0 || i >= n {
		return false, fmt.Errorf("alloc: reassign index %d out of range [0,%d)", i, n)
	}
	if err := inc.ensureEval(); err != nil {
		return false, err
	}
	sf, tp, ch, changed := inc.bestMove(i)
	if !changed {
		return false, nil
	}
	if err := inc.commit(i, sf, tp, ch); err != nil {
		return false, err
	}
	return true, nil
}

// SetAssignment overrides device i's committed (SF, TP dBm, channel) — the
// entry point for reflecting settings a device actually runs (e.g. after a
// rejected LinkADRAns) rather than the planned ones. It writes through the
// cached reassignment state so a later ReassignDevice sees the override.
func (inc *Incremental) SetAssignment(i int, sf lora.SF, tpDBm float64, ch int) error {
	n := inc.net.N()
	if i < 0 || i >= n {
		return fmt.Errorf("alloc: assignment index %d out of range [0,%d)", i, n)
	}
	if !sf.Valid() {
		return fmt.Errorf("alloc: invalid SF %d", sf)
	}
	if ch < 0 || ch >= inc.p.Plan.NumChannels() {
		return fmt.Errorf("alloc: channel %d out of range [0,%d)", ch, inc.p.Plan.NumChannels())
	}
	if inc.ev != nil {
		if err := inc.ev.SetDevice(i, sf, tpDBm, ch); err != nil {
			return err
		}
	}
	inc.alloc.SF[i] = sf
	inc.alloc.TPdBm[i] = tpDBm
	inc.alloc.Channel[i] = ch
	return nil
}

// RemoveDevice deletes device i; the remaining devices keep their
// settings (indices above i shift down by one).
func (inc *Incremental) RemoveDevice(i int) error {
	n := inc.net.N()
	if i < 0 || i >= n {
		return fmt.Errorf("alloc: remove index %d out of range [0,%d)", i, n)
	}
	if n == 1 {
		return fmt.Errorf("alloc: cannot remove the last device")
	}
	inc.net.Devices = append(inc.net.Devices[:i], inc.net.Devices[i+1:]...)
	if inc.net.Env != nil {
		inc.net.Env = append(inc.net.Env[:i], inc.net.Env[i+1:]...)
	}
	if inc.net.IntervalS != nil {
		inc.net.IntervalS = append(inc.net.IntervalS[:i], inc.net.IntervalS[i+1:]...)
	}
	inc.alloc.SF = append(inc.alloc.SF[:i], inc.alloc.SF[i+1:]...)
	inc.alloc.TPdBm = append(inc.alloc.TPdBm[:i], inc.alloc.TPdBm[i+1:]...)
	inc.alloc.Channel = append(inc.alloc.Channel[:i], inc.alloc.Channel[i+1:]...)
	inc.invalidate()
	return nil
}

// MinEE evaluates the current allocation's minimum energy efficiency.
func (inc *Incremental) MinEE() (float64, error) {
	return EvaluateMinEE(&inc.net, inc.p, inc.alloc, model.ModeExact)
}

// Reoptimize runs the full EF-LoRa greedy on the current deployment,
// replacing the incrementally maintained allocation.
func (inc *Incremental) Reoptimize() (Report, error) {
	ef := NewEFLoRa(inc.opts)
	a, rep, err := ef.AllocateWithReport(&inc.net, inc.p, nil)
	if err != nil {
		return rep, err
	}
	inc.alloc = a
	inc.invalidate()
	return rep, nil
}
