package model

import (
	"math"
	"testing"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/rng"
)

// testNetwork builds a small deterministic deployment.
func testNetwork(nDev, nGW int, seed uint64) *Network {
	r := rng.New(seed)
	return &Network{
		Devices:  geo.UniformDisc(nDev, 3000, r),
		Gateways: geo.GridGateways(nGW, 3000),
	}
}

// feasibleAllocation assigns each device its minimum feasible SF at max
// power, channels round-robin.
func feasibleAllocation(net *Network, p Params) Allocation {
	gains := Gains(net, p)
	a := NewAllocation(net.N(), p.Plan)
	for i := 0; i < net.N(); i++ {
		sf, ok := MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			sf = lora.MaxSF
		}
		a.SF[i] = sf
		a.TPdBm[i] = p.Plan.MaxTxPowerDBm
		a.Channel[i] = i % p.Plan.NumChannels()
	}
	return a
}

func newTestEvaluator(t *testing.T, nDev, nGW int, seed uint64) *Evaluator {
	t.Helper()
	net := testNetwork(nDev, nGW, seed)
	p := DefaultParams()
	e, err := NewEvaluator(net, p, feasibleAllocation(net, p), ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEvaluatorConstructorValidates(t *testing.T) {
	net := testNetwork(10, 1, 1)
	p := DefaultParams()
	alloc := feasibleAllocation(net, p)

	// Mode(2) is the value the deleted Poisson-point-process mode held.
	for _, mode := range []Mode{Mode(2), Mode(99)} {
		if _, err := NewEvaluator(net, p, alloc, mode); err == nil {
			t.Errorf("invalid mode %d accepted", mode)
		}
	}
	bad := p
	bad.GatewayCapacity = 0
	if _, err := NewEvaluator(net, bad, alloc, ModeExact); err == nil {
		t.Error("invalid params accepted")
	}
	empty := &Network{}
	if _, err := NewEvaluator(empty, p, alloc, ModeExact); err == nil {
		t.Error("empty network accepted")
	}
	short := NewAllocation(5, p.Plan)
	if _, err := NewEvaluator(net, p, short, ModeExact); err == nil {
		t.Error("mis-sized allocation accepted")
	}
}

func TestEEValuesSane(t *testing.T) {
	e := newTestEvaluator(t, 200, 3, 42)
	for i, ee := range e.EEAll() {
		if ee < 0 || math.IsNaN(ee) || math.IsInf(ee, 0) {
			t.Fatalf("EE[%d] = %v", i, ee)
		}
		prr := e.PRR(i)
		if prr < -1e-9 || prr > 1+1e-9 {
			t.Fatalf("PRR[%d] = %v outside [0,1]", i, prr)
		}
	}
	// The paper reports EE between roughly 0.1 and 2.3 bits/mJ, i.e.
	// 100..2300 bits/J; check the order of magnitude.
	minEE, _ := e.MinEE()
	s := e.EEAll()
	maxEE := 0.0
	for _, v := range s {
		if v > maxEE {
			maxEE = v
		}
	}
	if maxEE < 50 || maxEE > 1e5 {
		t.Errorf("max EE = %v bits/J, want paper-scale (hundreds to thousands)", maxEE)
	}
	if minEE < 0 || minEE > maxEE {
		t.Errorf("min EE = %v out of range (max %v)", minEE, maxEE)
	}
}

func TestMinEEMatchesEEAll(t *testing.T) {
	e := newTestEvaluator(t, 150, 2, 7)
	min, idx := e.MinEE()
	all := e.EEAll()
	want := math.Inf(1)
	for _, v := range all {
		if v < want {
			want = v
		}
	}
	if math.Abs(min-want) > 1e-12 {
		t.Errorf("MinEE = %v, scan of EEAll = %v", min, want)
	}
	if idx < 0 || all[idx] != min {
		t.Errorf("MinEE index %d does not attain the minimum", idx)
	}
}

func TestSetDeviceMatchesFreshEvaluator(t *testing.T) {
	// Incremental updates must agree with building a fresh evaluator on
	// the mutated allocation.
	net := testNetwork(80, 3, 3)
	p := DefaultParams()
	alloc := feasibleAllocation(net, p)
	e, err := NewEvaluator(net, p, alloc, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	mut := alloc.Clone()
	changes := []struct {
		i  int
		sf lora.SF
		tp float64
		ch int
	}{
		{0, lora.SF9, 8, 3},
		{10, lora.SF12, 2, 7},
		{0, lora.SF8, 14, 3},
		{41, lora.SF10, 6, 0},
	}
	for _, c := range changes {
		if err := e.SetDevice(c.i, c.sf, c.tp, c.ch); err != nil {
			t.Fatal(err)
		}
		mut.SF[c.i], mut.TPdBm[c.i], mut.Channel[c.i] = c.sf, c.tp, c.ch
	}
	e.RecomputeAll()
	fresh, err := NewEvaluator(net, p, mut, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	gotAll, wantAll := e.EEAll(), fresh.EEAll()
	for i := range gotAll {
		if math.Abs(gotAll[i]-wantAll[i]) > 1e-9*math.Max(1, wantAll[i]) {
			t.Fatalf("EE[%d]: incremental %v vs fresh %v", i, gotAll[i], wantAll[i])
		}
	}
}

func TestSetDeviceRejectsInvalid(t *testing.T) {
	e := newTestEvaluator(t, 10, 1, 1)
	if err := e.SetDevice(-1, lora.SF7, 14, 0); err == nil {
		t.Error("negative index accepted")
	}
	if err := e.SetDevice(0, lora.SF(6), 14, 0); err == nil {
		t.Error("invalid SF accepted")
	}
	if err := e.SetDevice(0, lora.SF7, 99, 0); err == nil {
		t.Error("out-of-range TP accepted")
	}
	if err := e.SetDevice(0, lora.SF7, 14, 99); err == nil {
		t.Error("out-of-range channel accepted")
	}
}

func TestMinEEIfAgreesWithCommit(t *testing.T) {
	net := testNetwork(60, 2, 11)
	p := DefaultParams()
	e, err := NewEvaluator(net, p, feasibleAllocation(net, p), ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		i  int
		sf lora.SF
		tp float64
		ch int
	}{
		{5, lora.SF9, 10, 2},
		{5, lora.SF7, 2, 5},
		{17, lora.SF11, 14, 1},
		{17, lora.SF8, 6, 1}, // same channel, different SF
		{3, lora.SF7, 4, 3},  // may be same group as initial
	}
	for _, c := range cases {
		predicted := e.MinEEIf(c.i, c.sf, c.tp, c.ch)
		// Commit on a clone of the state via a fresh evaluator to compare.
		mut := e.Allocation()
		mut.SF[c.i], mut.TPdBm[c.i], mut.Channel[c.i] = c.sf, c.tp, c.ch
		fresh, err := NewEvaluator(net, p, mut, ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		actual, _ := fresh.MinEE()
		// MinEEIf holds θ fixed, so allow a small relative tolerance.
		if math.Abs(predicted-actual) > 0.02*math.Max(actual, 1e-9) {
			t.Errorf("MinEEIf(%+v) = %v, committed min = %v", c, predicted, actual)
		}
	}
}

func TestMinEEIfDoesNotMutate(t *testing.T) {
	e := newTestEvaluator(t, 50, 2, 13)
	before, _ := e.MinEE()
	beforeAll := e.EEAll()
	_ = e.MinEEIf(7, lora.SF12, 2, 4)
	_ = e.MinEEIf(7, lora.SF7, 14, 0)
	after, _ := e.MinEE()
	if before != after {
		t.Errorf("MinEEIf mutated MinEE: %v -> %v", before, after)
	}
	for i, v := range e.EEAll() {
		if v != beforeAll[i] {
			t.Fatalf("MinEEIf mutated EE[%d]", i)
		}
	}
}

func TestMoreInterferersLowerEE(t *testing.T) {
	// Packing everyone into one (SF, channel) group must not raise the
	// minimum EE compared to spreading across channels.
	net := testNetwork(120, 2, 17)
	p := DefaultParams()

	spread := feasibleAllocation(net, p)
	packed := spread.Clone()
	for i := range packed.Channel {
		packed.Channel[i] = 0
		packed.SF[i] = lora.SF9
		packed.TPdBm[i] = 14
	}
	for i := range spread.SF {
		spread.SF[i] = lora.SF9
		spread.TPdBm[i] = 14
	}
	eSpread, err := NewEvaluator(net, p, spread, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	ePacked, err := NewEvaluator(net, p, packed, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	minSpread, _ := eSpread.MinEE()
	minPacked, _ := ePacked.MinEE()
	if minPacked >= minSpread {
		t.Errorf("packed min EE %v >= spread min EE %v", minPacked, minSpread)
	}
}

func TestLargerSFLowersEEWithoutInterference(t *testing.T) {
	// A lone device near a gateway: higher SF means longer air time and
	// hence strictly lower EE (PRR is ~1 either way).
	net := &Network{
		Devices:  []geo.Point{{X: 200, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := DefaultParams()
	prev := math.Inf(1)
	for _, sf := range lora.SFs() {
		a := NewAllocation(1, p.Plan)
		a.SF[0] = sf
		a.TPdBm[0] = 14
		e, err := NewEvaluator(net, p, a, ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		ee := e.EE(0)
		if ee >= prev {
			t.Errorf("EE at %v = %v, not below previous %v", sf, ee, prev)
		}
		prev = ee
	}
}

func TestMoreGatewaysImprovePRR(t *testing.T) {
	// The same devices with more gateways should see PRR (hence EE) rise
	// for the worst device: the multi-gateway reception of Eq. 13.
	p := DefaultParams()
	r := rng.New(23)
	devices := geo.UniformDisc(150, 4000, r)

	minWith := func(g int) float64 {
		net := &Network{Devices: devices, Gateways: geo.GridGateways(g, 4000)}
		a := feasibleAllocation(net, p)
		// Same radio settings in both runs so only gateway diversity
		// differs.
		for i := range a.SF {
			a.SF[i] = lora.SF10
			a.TPdBm[i] = 14
		}
		e, err := NewEvaluator(net, p, a, ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := e.MinEE()
		return m
	}
	if m1, m5 := minWith(1), minWith(5); m5 <= m1 {
		t.Errorf("min EE with 5 GWs (%v) should exceed 1 GW (%v)", m5, m1)
	}
}

// TestCommitLeavesOtherGroupsExact pins the premise of the incremental
// evaluator: a SetDevice commit changes only the two (SF, channel) groups
// it touches, so refreshing those two leaves every cached group minimum
// exact. The capacity factor θ, the one term a commit leaves stale until
// RecomputeAll, is 1 up to rounding here, because every gateway can
// demodulate more packets than there are devices; the test never flushes.
func TestCommitLeavesOtherGroupsExact(t *testing.T) {
	var checked, bad int
	var worst float64
	for seed := uint64(1); seed <= 20; seed++ {
		net, p, a := fuzzEvalScenario(seed, 0)
		p.TrafficDutyCycle = 0.05
		p.GatewayCapacity = net.N() + 1
		ev, err := NewEvaluator(net, p, a, ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		tpLevels := p.Plan.TxPowerLevels()
		r := rng.New(seed ^ 0x2545f4914f6cdd1d)
		for op := 0; op < 20; op++ {
			i := r.Intn(net.N())
			sf := lora.SF7 + lora.SF(r.Intn(6))
			tp := tpLevels[r.Intn(len(tpLevels))]
			if err := ev.SetDevice(i, sf, tp, r.Intn(p.Plan.NumChannels())); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewEvaluator(net, p, ev.Allocation(), ModeExact)
			if err != nil {
				t.Fatal(err)
			}
			for gi := range ev.groups {
				got, want := ev.groups[gi].minEE, fresh.groups[gi].minEE
				if math.IsInf(want, 1) && math.IsInf(got, 1) {
					continue
				}
				checked++
				rel := math.Abs(got-want) / math.Abs(want)
				if got == want {
					rel = 0
				}
				if !(rel <= worst) {
					worst = rel
				}
				if !(rel <= 1e-9) {
					bad++
					if bad == 1 {
						t.Errorf("seed %d commit %d: group %d cached min EE %v, fresh %v",
							seed, op, gi, got, want)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-empty group was compared")
	}
	if bad > 0 {
		t.Errorf("%d of %d group minima off by more than 1e-9 relative; worst %.3g", bad, checked, worst)
	}
}

func TestPerDeviceIntervalExtension(t *testing.T) {
	// Devices reporting twice as often have double the duty cycle, which
	// must increase contention and can only hurt the others.
	net := testNetwork(100, 2, 37)
	p := DefaultParams()
	a := feasibleAllocation(net, p)

	slow := &Network{Devices: net.Devices, Gateways: net.Gateways}
	fast := &Network{Devices: net.Devices, Gateways: net.Gateways}
	fast.IntervalS = make([]float64, net.N())
	for i := range fast.IntervalS {
		fast.IntervalS[i] = p.PacketIntervalS / 4
	}
	eSlow, err := NewEvaluator(slow, p, a, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	eFast, err := NewEvaluator(fast, p, a, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := eSlow.MinEE()
	mf, _ := eFast.MinEE()
	if mf >= ms {
		t.Errorf("4x traffic should lower min EE: fast %v >= slow %v", mf, ms)
	}
}

func TestAllocationSnapshotRoundTrip(t *testing.T) {
	e := newTestEvaluator(t, 30, 2, 41)
	if err := e.SetDevice(4, lora.SF11, 8, 2); err != nil {
		t.Fatal(err)
	}
	a := e.Allocation()
	if a.SF[4] != lora.SF11 || a.TPdBm[4] != 8 || a.Channel[4] != 2 {
		t.Errorf("snapshot did not capture SetDevice: %v %v %v", a.SF[4], a.TPdBm[4], a.Channel[4])
	}
	// Snapshot is a copy: mutating it must not affect the evaluator.
	a.SF[4] = lora.SF7
	if e.Allocation().SF[4] != lora.SF11 {
		t.Error("Allocation returned a view, not a copy")
	}
}

func TestGatewayCapacityBites(t *testing.T) {
	// With a capacity-1 gateway and many high-duty devices, θ should
	// visibly depress PRR versus a high-capacity gateway.
	net := testNetwork(100, 1, 43)
	p := DefaultParams()
	p.PacketIntervalS = 30 // very chatty
	a := feasibleAllocation(net, p)
	for i := range a.SF {
		a.SF[i] = lora.SF10
	}
	pLow := p
	pLow.GatewayCapacity = 1
	pHigh := p
	pHigh.GatewayCapacity = 64
	eLow, err := NewEvaluator(net, pLow, a, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	eHigh, err := NewEvaluator(net, pHigh, a, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	ml, _ := eLow.MinEE()
	mh, _ := eHigh.MinEE()
	if ml >= mh {
		t.Errorf("capacity-1 min EE %v should be below capacity-64 %v", ml, mh)
	}
}
