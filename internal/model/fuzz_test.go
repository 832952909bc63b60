package model

import (
	"fmt"
	"math"
	"testing"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/rng"
)

// fuzzEvalScenario derives a bounded random deployment, parameter variant
// and allocation from (seed, knobs) for the evaluator fuzz targets.
func fuzzEvalScenario(seed, knobs uint64) (*Network, Params, Allocation) {
	r := rng.New(seed)
	p := DefaultParams()
	switch knobs % 5 {
	case 1:
		p.TrafficDutyCycle = 0.05
	case 2:
		// Overload: duty-cycle traffic against a two-packet gateway.
		p.TrafficDutyCycle = 0.05
		p.GatewayCapacity = 2
	case 3:
		p.Objective = ObjectiveThroughput
	case 4:
		p.GatewayCapacity = 2
	}
	net := &Network{
		Devices:  geo.UniformDisc(40+r.Intn(40), 3500, r),
		Gateways: geo.GridGateways(1+r.Intn(3), 3500),
	}
	a := NewAllocation(net.N(), p.Plan)
	tpLevels := p.Plan.TxPowerLevels()
	for i := range a.SF {
		a.SF[i] = lora.SF7 + lora.SF(r.Intn(6))
		a.TPdBm[i] = tpLevels[r.Intn(len(tpLevels))]
		a.Channel[i] = r.Intn(p.Plan.NumChannels())
	}
	return net, p, a
}

// FuzzEvaluatorConsistency drives the incremental evaluator through a
// random SetDevice burst, then checks every cached metric against a
// freshly constructed evaluator (after the RecomputeAll flush). This is
// the strongest guard on the incremental group/exposure/capacity
// bookkeeping the allocator relies on.
func FuzzEvaluatorConsistency(f *testing.F) {
	for v := uint64(0); v < 5; v++ {
		f.Add(uint64(20260706)+v, v)
	}
	f.Fuzz(func(t *testing.T, seed, knobs uint64) {
		net, p, a := fuzzEvalScenario(seed, knobs)
		tpLevels := p.Plan.TxPowerLevels()
		r := rng.New(seed ^ 0xa0761d6478bd642f)
		ev, err := NewEvaluator(net, p, a, ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 60; op++ {
			i := r.Intn(net.N())
			sf := lora.SF7 + lora.SF(r.Intn(6))
			tp := tpLevels[r.Intn(len(tpLevels))]
			ch := r.Intn(p.Plan.NumChannels())
			// Interleave trials (must not mutate) with commits.
			if op%3 == 0 {
				before, _ := ev.MinEE()
				_ = ev.MinEEIf(i, sf, tp, ch)
				after, _ := ev.MinEE()
				if before != after {
					t.Fatalf("MinEEIf mutated state (%v -> %v)", before, after)
				}
				continue
			}
			if err := ev.SetDevice(i, sf, tp, ch); err != nil {
				t.Fatalf("SetDevice: %v", err)
			}
		}
		ev.RecomputeAll()
		fresh, err := NewEvaluator(net, p, ev.Allocation(), ModeExact)
		if err != nil {
			t.Fatalf("fresh: %v", err)
		}
		got, want := ev.EEAll(), fresh.EEAll()
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1e-12, math.Abs(want[i])) {
				t.Fatalf("EE[%d] incremental %v vs fresh %v", i, got[i], want[i])
			}
		}
		gm, gi := ev.MinEE()
		fm, fi := fresh.MinEE()
		if math.Abs(gm-fm) > 1e-9*math.Max(1e-12, math.Abs(fm)) || gi != fi {
			t.Fatalf("MinEE (%v, %d) vs fresh (%v, %d)", gm, gi, fm, fi)
		}
	})
}

// freshLink computes device j's (vis, q, fade) at gateway k under (sf,
// tpDBm) from the parameters, independently of the evaluator's caches.
func freshLink(ev *Evaluator, j, k int, sf lora.SF, tpDBm float64) (vis, q, fade float64) {
	p := ev.p
	pa := lora.DBmToMilliwatts(tpDBm) * ev.gain[j][k]
	if pa <= 0 {
		return 0, 0, 0
	}
	ss := lora.DBmToMilliwatts(lora.SensitivityDBm(sf))
	floor := math.Max(lora.DBToLinear(lora.SNRThresholdDB(sf))*lora.DBmToMilliwatts(p.NoiseDBm), ss)
	alpha := math.Min(1, p.TimeOnAir(sf)/p.IntervalFor(ev.net, j, sf))
	vis = math.Exp(-ss / pa)
	return vis, alpha * vis, math.Exp(-floor / pa)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkRowsFresh fails unless every committed row ev would serve equals a
// fresh computation bit for bit: vis, q and fade from each device's
// committed SF and power, and θ from the current capacity distributions
// for every row whose epoch is current (a row behind the epoch is
// recomputed before it is read). It returns how many θ rows it compared.
func checkRowsFresh(t *testing.T, ev *Evaluator, step string) (thetaRows int) {
	t.Helper()
	for j := 0; j < ev.n; j++ {
		current := ev.thetaEpoch[j] == ev.epoch
		if current {
			thetaRows++
		}
		for k := 0; k < ev.g; k++ {
			vis, q, fade := freshLink(ev, j, k, ev.sf[j], ev.tpDBm[j])
			if !sameBits(ev.vis[j][k], vis) || !sameBits(ev.q[j][k], q) || !sameBits(ev.fade[j][k], fade) {
				t.Fatalf("%s: device %d gateway %d: row (vis %v, q %v, fade %v), fresh (%v, %v, %v)",
					step, j, k, ev.vis[j][k], ev.q[j][k], ev.fade[j][k], vis, q, fade)
			}
			if !current {
				continue
			}
			if want := ev.capDP[k].ProbAtMostExcluding(q, ev.p.GatewayCapacity-1); !sameBits(ev.theta[j][k], want) {
				t.Fatalf("%s: device %d gateway %d: θ row %v at epoch %d, fresh %v",
					step, j, k, ev.theta[j][k], ev.epoch, want)
			}
		}
	}
	return thetaRows
}

// checkPrologue fails unless the prologue ev serves for moving device i
// to (sf, tpDBm) — kept from an earlier probe or computed now — equals a
// fresh computation bit for bit.
func checkPrologue(t *testing.T, ev *Evaluator, i int, sf lora.SF, tpDBm float64, step string) {
	t.Helper()
	c := ev.candidate(i, sf, tpDBm)
	for k := 0; k < ev.g; k++ {
		vis, q, fade := freshLink(ev, i, k, sf, tpDBm)
		if !sameBits(c.vis[k], vis) || !sameBits(c.q[k], q) || !sameBits(c.fade[k], fade) {
			t.Fatalf("%s: prologue of device %d (%v, %v dBm) gateway %d: (vis %v, q %v, fade %v), fresh (%v, %v, %v)",
				step, i, sf, tpDBm, k, c.vis[k], c.q[k], c.fade[k], vis, q, fade)
		}
	}
}

// checkRanked fails unless ev.rank holds the three groups with the lowest
// cached minimum EE in (minEE, group index) order, as a linear scan of
// the groups finds them.
func checkRanked(t *testing.T, ev *Evaluator, step string) {
	t.Helper()
	taken := make([]bool, len(ev.groups))
	for r, gi := range ev.rank {
		want := -1
		for g := range ev.groups {
			if !taken[g] && (want < 0 || ev.groups[g].minEE < ev.groups[want].minEE) {
				want = g
			}
		}
		taken[want] = true
		if int(gi) != want {
			t.Fatalf("%s: rank %d is group %d (min %v), linear scan finds group %d (min %v)",
				step, r, gi, ev.groups[gi].minEE, want, ev.groups[want].minEE)
		}
	}
}

// leavingEEs returns the EE of every member of device i's group other
// than i under the group's exposure minus i's committed row, and their
// minimum: a fresh full leaving-group scan.
func leavingEEs(ev *Evaluator, i int) (ees []float64, min float64) {
	gr := ev.groupOf(ev.sf[i], ev.ch[i])
	x := exposure{visSum: make([]float64, ev.g), qSum: make([]float64, ev.g), withSelf: true}
	for k := 0; k < ev.g; k++ {
		x.visSum[k] = gr.visSum[k] - ev.vis[i][k]
		x.qSum[k] = gr.qSum[k] - ev.q[i][k]
	}
	min = math.Inf(1)
	for j := int(gr.head); j >= 0; j = int(ev.next[j]) {
		if j == i {
			continue
		}
		s := ev.committed(j)
		ee := ev.eeCompute(j, &s, &x)
		if ee < min {
			min = ee
		}
		ees = append(ees, ee)
	}
	return ees, min
}

// checkLeaving checks a leaving-group scan of device i against a fresh
// full one (leavingEEs): bit for bit when the scan ran to the end, else
// it must be one member's EE, so at or above the fresh minimum.
func checkLeaving(t *testing.T, ev *Evaluator, i int, got float64, full bool, step string) {
	t.Helper()
	ees, min := leavingEEs(ev, i)
	if full {
		if !sameBits(got, min) {
			t.Fatalf("%s: leaving scan of device %d at epoch %d is %v, a fresh scan %v",
				step, i, ev.epoch, got, min)
		}
		return
	}
	for _, ee := range ees {
		if sameBits(ee, got) {
			return
		}
	}
	t.Fatalf("%s: partial leaving scan of device %d at epoch %d stopped at %v, no member's EE (fresh minimum %v)",
		step, i, ev.epoch, got, min)
}

// checkKeptLeaving checks the leaving-group scan ev keeps, if it is for
// the current epoch, and reports whether it was.
func checkKeptLeaving(t *testing.T, ev *Evaluator, step string) bool {
	t.Helper()
	l := ev.leave
	if l.i < 0 || l.epoch != ev.epoch {
		return false
	}
	checkLeaving(t, ev, l.i, l.min, l.full, step)
	return true
}

// refMinEEIf computes MinEEIf(i, sf, tpDBm, ch) with neither the kept
// prologue, the plan-level tables, the ranked group minima nor the kept
// leaving-group scan: device i's candidate setting from the parameters, a
// fold over every untouched group's cached minimum in index order, and
// full member scans of the groups the move touches.
func refMinEEIf(ev *Evaluator, i int, sf lora.SF, tpDBm float64, ch int) float64 {
	g := ev.g
	toa := ev.p.TimeOnAir(sf)
	c := setting{
		sf:    sf,
		tpmw:  lora.DBmToMilliwatts(tpDBm),
		alpha: math.Min(1, toa/ev.p.IntervalFor(ev.net, i, sf)),
		es:    ev.p.Profile.TransmissionEnergy(tpDBm, toa),
		vis:   make([]float64, g),
		fade:  make([]float64, g),
	}
	q := make([]float64, g)
	for k := 0; k < g; k++ {
		c.vis[k], q[k], c.fade[k] = freshLink(ev, i, k, sf, tpDBm)
	}
	oldGr, newGr := ev.groupOf(ev.sf[i], ev.ch[i]), ev.groupOf(sf, ch)
	same := oldGr == newGr
	min := ev.eeCompute(i, &c, &exposure{visSum: newGr.visSum, qSum: newGr.qSum, withSelf: same})
	for gi := range ev.groups {
		if gr := &ev.groups[gi]; gr != oldGr && gr != newGr && gr.minEE < min {
			min = gr.minEE
		}
	}
	x := exposure{visSum: make([]float64, g), qSum: make([]float64, g), withSelf: true}
	scan := func(gr *group) {
		for j := int(gr.head); j >= 0; j = int(ev.next[j]) {
			if j == i {
				continue
			}
			s := ev.committed(j)
			if ee := ev.eeCompute(j, &s, &x); ee < min {
				min = ee
			}
		}
	}
	if same {
		for k := 0; k < g; k++ {
			x.visSum[k] = newGr.visSum[k] - ev.vis[i][k] + c.vis[k]
			x.qSum[k] = newGr.qSum[k] - ev.q[i][k] + q[k]
		}
		scan(newGr)
		return min
	}
	for k := 0; k < g; k++ {
		x.visSum[k] = oldGr.visSum[k] - ev.vis[i][k]
		x.qSum[k] = oldGr.qSum[k] - ev.q[i][k]
	}
	scan(oldGr)
	for k := 0; k < g; k++ {
		x.visSum[k] = newGr.visSum[k] + c.vis[k]
		x.qSum[k] = newGr.qSum[k] + q[k]
	}
	scan(newGr)
	return min
}

// checkMinEEIfAbove probes MinEEIfAbove(i, sf, tpDBm, ch, threshold)
// against refMinEEIf: when either result is above the threshold both must
// be equal bit for bit; otherwise both must be at or below it, where the
// evaluator may stop early at any such value.
func checkMinEEIfAbove(t *testing.T, ev *Evaluator, i int, sf lora.SF, tpDBm float64, ch int, threshold float64, step string) {
	t.Helper()
	got := ev.MinEEIfAbove(i, sf, tpDBm, ch, threshold)
	want := refMinEEIf(ev, i, sf, tpDBm, ch)
	if (got > threshold || want > threshold) && !sameBits(got, want) {
		t.Fatalf("%s: MinEEIfAbove(%d, %v, %v dBm, ch %d, %v) = %v, reference %v",
			step, i, sf, tpDBm, ch, threshold, got, want)
	}
}

// FuzzEvaluatorRowsFresh interleaves commits, flushes and candidate
// probes at random, and checks after every step that no committed row,
// candidate prologue, group ranking or kept leaving-group scan the
// evaluator would serve is stale (checkRowsFresh, checkPrologue,
// checkRanked, checkLeaving), and every probe against refMinEEIf at
// random thresholds, −Inf included. FuzzEvaluatorConsistency compares
// state only after a RecomputeAll flush, so it cannot see a commit that
// forgets to bump the epoch or re-rank the groups; this target can.
func FuzzEvaluatorRowsFresh(f *testing.F) {
	for v := uint64(0); v < 5; v++ {
		f.Add(uint64(20261018)+v, v)
	}
	f.Fuzz(func(t *testing.T, seed, knobs uint64) {
		net, p, a := fuzzEvalScenario(seed, knobs)
		tpLevels := p.Plan.TxPowerLevels()
		nch := p.Plan.NumChannels()
		ev, err := NewEvaluator(net, p, a, ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		checkRowsFresh(t, ev, "NewEvaluator")
		checkRanked(t, ev, "NewEvaluator")
		r := rng.New(seed ^ 0x5851f42d4c957f2d)
		served, kept := 0, 0
		i := 0
		for op := 0; op < 80; op++ {
			// Half the steps stay on the last step's device, so a
			// scan kept for it meets later commits and flushes.
			if op == 0 || r.Intn(2) == 0 {
				i = r.Intn(net.N())
			}
			sf := lora.SF7 + lora.SF(r.Intn(6))
			tp := tpLevels[r.Intn(len(tpLevels))]
			var step string
			switch r.Intn(8) {
			case 0, 1, 2:
				step = fmt.Sprintf("op %d SetDevice(%d)", op, i)
				if err := ev.SetDevice(i, sf, tp, r.Intn(nch)); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			case 3:
				step = fmt.Sprintf("op %d RecomputeAll", op)
				ev.RecomputeAll()
			case 4, 5:
				step = fmt.Sprintf("op %d MinEEIf(%d)", op, i)
				checkMinEEIfAbove(t, ev, i, sf, tp, r.Intn(nch), math.Inf(-1), step)
				checkPrologue(t, ev, i, sf, tp, step)
			default:
				// Every TP level and channel of one (device, SF) in
				// the greedy's order, so a kept prologue is reused
				// across channels and must be replaced across powers,
				// and a kept leaving scan is served across both. Each
				// probe draws its threshold: −Inf, the network minimum,
				// a level above it, or the reference value itself.
				step = fmt.Sprintf("op %d MinEEIfAbove(%d, %v) over all powers and channels", op, i, sf)
				cur, _ := ev.MinEE()
				maxEE := math.Inf(-1)
				for _, ee := range ev.ee {
					maxEE = math.Max(maxEE, ee)
				}
				for _, tp := range tpLevels {
					for ch := 0; ch < nch; ch++ {
						th := math.Inf(-1)
						switch r.Intn(4) {
						case 1:
							th = cur
						case 2:
							th = cur + (maxEE-cur)*r.Float64()
						case 3:
							th = refMinEEIf(ev, i, sf, tp, ch)
						}
						// What the evaluator serves for i at th,
						// kept or scanned now.
						l := ev.leavingMin(ev.groupOf(ev.sf[i], ev.ch[i]), i, th)
						checkLeaving(t, ev, i, l, !(l <= th), step)
						checkMinEEIfAbove(t, ev, i, sf, tp, ch, th, step)
					}
					checkPrologue(t, ev, i, sf, tp, step)
				}
			}
			served += checkRowsFresh(t, ev, step)
			checkRanked(t, ev, step)
			if checkKeptLeaving(t, ev, step) {
				kept++
			}
		}
		if served == 0 {
			t.Fatal("no θ row was current at any check")
		}
		if kept == 0 {
			t.Fatal("no leaving-group scan was kept at any check")
		}
	})
}

// FuzzEvaluatorInvariants checks physical invariants across fuzz-chosen
// configurations: EE and PRR are finite, non-negative and PRR <= 1.
func FuzzEvaluatorInvariants(f *testing.F) {
	for trial := uint64(0); trial < 10; trial++ {
		f.Add(uint64(424242)+trial, trial)
	}
	f.Fuzz(func(t *testing.T, seed, knobs uint64) {
		net, p, a := fuzzEvalScenario(seed, knobs)
		ev, err := NewEvaluator(net, p, a, ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < net.N(); i++ {
			ee := ev.EE(i)
			prr := ev.PRR(i)
			if math.IsNaN(ee) || math.IsInf(ee, 0) || ee < 0 {
				t.Fatalf("EE[%d] = %v", i, ee)
			}
			if prr < -1e-9 || prr > 1+1e-9 {
				t.Fatalf("PRR[%d] = %v", i, prr)
			}
		}
	})
}

// checkBlockingGroupsSound drives one fuzz scenario through a random
// SetDevice burst, then checks the pruning rule against MinEEIfAbove:
// every (SF, TP, channel) move that BlockingGroups rules out for a device
// must evaluate to at most the threshold, at t = MinEE() and at
// thresholds above it (the runner-up group minimum exactly, and halfway
// to the largest EE). It returns how many verdicts ruled out every move
// of a device and how many left exactly one group.
func checkBlockingGroupsSound(t *testing.T, seed, knobs uint64) (skipAll, oneGroup int) {
	t.Helper()
	net, p, a := fuzzEvalScenario(seed, knobs)
	tpLevels := p.Plan.TxPowerLevels()
	nch := p.Plan.NumChannels()
	ev, err := NewEvaluator(net, p, a, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed ^ 0x9e3779b97f4a7c15)
	for op := 0; op < 40; op++ {
		i := r.Intn(net.N())
		sf := lora.SF7 + lora.SF(r.Intn(6))
		if err := ev.SetDevice(i, sf, tpLevels[r.Intn(len(tpLevels))], r.Intn(nch)); err != nil {
			t.Fatalf("SetDevice: %v", err)
		}
	}
	// The scan runs on exactly this state: SetDevice refreshed only the
	// two groups it touched, so other group minima may be stale.
	minEE, _ := ev.MinEE()
	maxEE := math.Inf(-1)
	for _, ee := range ev.EEAll() {
		maxEE = math.Max(maxEE, ee)
	}
	// The runner-up group minimum sits exactly on a second group's
	// cached value, the boundary of the rule's "at or below".
	runnerUp := math.Inf(1)
	for _, gr := range ev.groups {
		if gr.minEE > minEE && gr.minEE < runnerUp {
			runnerUp = gr.minEE
		}
	}
	thresholds := []float64{minEE, minEE + (maxEE-minEE)/2}
	if !math.IsInf(runnerUp, 1) {
		thresholds = append(thresholds, runnerUp)
	}
	for _, th := range thresholds {
		for i := 0; i < net.N(); i++ {
			n, bsf, bch := ev.BlockingGroups(i, th)
			switch {
			case n >= 2:
				skipAll++
			case n == 1:
				oneGroup++
			}
			for _, sf := range lora.SFs() {
				for _, tp := range tpLevels {
					for ch := 0; ch < nch; ch++ {
						if n == 0 || (n == 1 && sf == bsf && ch == bch) {
							continue
						}
						if got := ev.MinEEIfAbove(i, sf, tp, ch, th); got > th {
							t.Fatalf("device %d move (%v, %v dBm, ch %d) ruled out at t=%v "+
								"(%d blocking groups, first %v/ch %d) but MinEEIfAbove = %v",
								i, sf, tp, ch, th, n, bsf, bch, got)
						}
					}
				}
			}
		}
	}
	return skipAll, oneGroup
}

// FuzzBlockingGroupsSound checks the greedy's bottleneck-group pruning
// rule (Evaluator.BlockingGroups) against MinEEIfAbove on random states:
// a move the rule skips can never beat the scan's threshold, so the
// pruned scan picks the same winner as a full one.
func FuzzBlockingGroupsSound(f *testing.F) {
	for v := uint64(0); v < 5; v++ {
		f.Add(uint64(20261017)+v, v)
	}
	f.Fuzz(func(t *testing.T, seed, knobs uint64) {
		checkBlockingGroupsSound(t, seed, knobs)
	})
}

// TestBlockingGroupsSoundNotVacuous runs the soundness check over every
// parameter variant and asserts that both pruning verdicts — skip the
// device, keep one group — occur, so the check exercises real skips.
func TestBlockingGroupsSoundNotVacuous(t *testing.T) {
	var skipAll, oneGroup int
	for knobs := uint64(0); knobs < 5; knobs++ {
		s, o := checkBlockingGroupsSound(t, 77+knobs, knobs)
		skipAll += s
		oneGroup += o
	}
	if skipAll == 0 || oneGroup == 0 {
		t.Errorf("pruning verdicts: %d skip-device, %d one-group; want both > 0", skipAll, oneGroup)
	}
}
