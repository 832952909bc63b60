package alloc

import (
	"fmt"
	"testing"

	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// refGreedyStep is greedyStep as a full enumeration: every feasible (SF,
// TP, channel) in order is counted one by one, and each one the pruning
// leaves is evaluated.
func refGreedyStep(ev *model.Evaluator, gains [][]float64, i int, tpLevels []float64, nch int, cur float64, keepCurrent bool, rep *Report) (candidate, bool) {
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

// TestGreedyStepMatchesFullScan holds greedyStep to refGreedyStep on
// random evaluator states: the same move, found flag and candidate
// counts, with and without the device's current assignment as a
// candidate, at the network minimum and at thresholds above it. The
// variants cover both greedy phases of the default plan, pinned powers on
// and off the plan's 2 dB grid, and a 2–14 dBm plan in 5 dB steps, whose
// phase-1 power of 14 dBm is not one of its levels. golden_eflora.txt
// pins the counts only for its fixed deployments.
func TestGreedyStepMatchesFullScan(t *testing.T) {
	def := model.DefaultParams()
	step5 := model.DefaultParams()
	step5.Plan.TxPowerStepDBm = 5
	variants := []struct {
		name     string
		p        model.Params
		tpLevels []float64
	}{
		{"default-phase1", def, []float64{def.Plan.MaxTxPowerDBm}},
		{"default-phase2", def, def.Plan.TxPowerLevels()},
		{"fixed-14dBm", def, []float64{14}},
		{"fixed-9dBm", def, []float64{9}},
		{"step5-phase1", step5, []float64{step5.Plan.MaxTxPowerDBm}},
		{"step5-phase2", step5, step5.Plan.TxPowerLevels()},
	}
	verdicts := map[int]int{}
	var steps, moves int
	for vi, v := range variants {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", v.name, seed)
			net := testNetwork(40+20*int(seed), 1+int(seed)%3, seed)
			gains := model.Gains(net, v.p)
			nch := v.p.Plan.NumChannels()
			r := rng.New(seed*31 + uint64(vi))
			// Committed powers include the plan maximum, which need not
			// be a candidate.
			tps := append([]float64{v.p.Plan.MaxTxPowerDBm}, v.tpLevels...)
			a := model.NewAllocation(net.N(), v.p.Plan)
			for i := range a.SF {
				a.SF[i] = lora.SF7 + lora.SF(r.Intn(6))
				a.TPdBm[i] = tps[r.Intn(len(tps))]
				a.Channel[i] = r.Intn(nch)
			}
			ev, err := model.NewEvaluator(net, v.p, a, model.ModeExact)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for op := 0; op < 60; op++ {
				i := r.Intn(net.N())
				cur, _ := ev.MinEE()
				if r.Intn(3) == 0 {
					cur += (ev.EE(i) - cur) * r.Float64()
				}
				keep := r.Intn(2) == 0
				n, _, _ := ev.BlockingGroups(i, cur)
				verdicts[min(n, 2)]++
				var got, want Report
				gc, gok := greedyStep(ev, gains, i, v.tpLevels, nch, cur, keep, &got)
				wc, wok := refGreedyStep(ev, gains, i, v.tpLevels, nch, cur, keep, &want)
				if gc != wc || gok != wok || got != want {
					t.Fatalf("%s op %d device %d (cur %v, keepCurrent %v): greedyStep %+v %v %+v, full scan %+v %v %+v",
						name, op, i, cur, keep, gc, gok, got, wc, wok, want)
				}
				steps++
				switch {
				case gok && r.Intn(2) == 0:
					moves++
					err = ev.SetDevice(i, gc.sf, gc.tp, gc.ch)
				case r.Intn(4) == 0:
					ev.RecomputeAll()
				default:
					err = ev.SetDevice(i, lora.SF7+lora.SF(r.Intn(6)), tps[r.Intn(len(tps))], r.Intn(nch))
				}
				if err != nil {
					t.Fatalf("%s op %d: %v", name, op, err)
				}
			}
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 || verdicts[2] == 0 || moves == 0 {
		t.Errorf("%d steps: blocking verdicts %v, %d winning moves committed; want every verdict and a move", steps, verdicts, moves)
	}
}
