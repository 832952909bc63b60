// Package alloc implements the resource allocators compared in the paper's
// evaluation: the EF-LoRa greedy max-min allocator (Algorithm 1), the
// legacy LoRa baseline of Van den Abeele et al. [13] (smallest SNR-feasible
// spreading factor), the RS-LoRa baseline of Reynders et al. [6]
// (collision-probability fairness via the SF shares of Eq. 22), and the
// fixed-transmission-power EF-LoRa ablation of Fig. 9.
package alloc

import (
	"fmt"
	"math"
	"sort"

	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// Allocator assigns spreading factors, transmission powers and channels to
// every device of a network.
type Allocator interface {
	// Allocate computes an allocation. The RNG drives any randomized
	// tie-breaking (e.g. legacy LoRa's random channel choice).
	Allocate(net *model.Network, p model.Params, r *rng.RNG) (model.Allocation, error)
}

// Legacy is the default LoRaWAN behaviour the paper benchmarks against
// [13]: every device picks the smallest spreading factor whose link budget
// closes toward its best gateway at maximum power, ignores interference,
// and hops on a random channel.
type Legacy struct{}

// Allocate implements Allocator.
func (Legacy) Allocate(net *model.Network, p model.Params, r *rng.RNG) (model.Allocation, error) {
	if err := p.Validate(); err != nil {
		return model.Allocation{}, err
	}
	if err := net.Validate(p); err != nil {
		return model.Allocation{}, err
	}
	gains := model.Gains(net, p)
	a := model.NewAllocation(net.N(), p.Plan)
	for i := 0; i < net.N(); i++ {
		sf, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			sf = lora.MaxSF // out of range; transmit at SF12 and hope
		}
		a.SF[i] = sf
		a.TPdBm[i] = p.Plan.MaxTxPowerDBm
		a.Channel[i] = r.Intn(p.Plan.NumChannels())
	}
	return a, nil
}

// RSLoRa is the collision-fairness baseline of Reynders et al. [6]: the
// fraction of devices using SF s follows Eq. 22,
//
//	p_s = (s/2^s) / Σ_{i∈SF} (i/2^i),
//
// which equalizes the per-SF collision probability. Devices are sorted by
// their minimum feasible SF (closest first) and filled into the quotas from
// SF7 upward, never below a device's feasibility bound. Power is reduced to
// the lowest level that closes the link (RS-LoRa also performs power
// control) and channels are assigned round-robin.
type RSLoRa struct{}

// SFShares returns the Eq. 22 distribution over SF7..SF12.
func SFShares() map[lora.SF]float64 {
	total := 0.0
	for _, s := range lora.SFs() {
		total += float64(s) / math.Exp2(float64(s))
	}
	shares := make(map[lora.SF]float64, 6)
	for _, s := range lora.SFs() {
		shares[s] = float64(s) / math.Exp2(float64(s)) / total
	}
	return shares
}

// Allocate implements Allocator.
func (RSLoRa) Allocate(net *model.Network, p model.Params, r *rng.RNG) (model.Allocation, error) {
	if err := p.Validate(); err != nil {
		return model.Allocation{}, err
	}
	if err := net.Validate(p); err != nil {
		return model.Allocation{}, err
	}
	n := net.N()
	gains := model.Gains(net, p)
	a := model.NewAllocation(n, p.Plan)

	// Quotas per SF, largest remainders last so they absorb rounding.
	shares := SFShares()
	quota := make(map[lora.SF]int, 6)
	assignedTotal := 0
	for _, s := range lora.SFs() {
		quota[s] = int(math.Floor(shares[s] * float64(n)))
		assignedTotal += quota[s]
	}
	for i := 0; assignedTotal < n; i++ {
		quota[lora.SFs()[i%6]]++
		assignedTotal++
	}

	// Devices in order of increasing minimum feasible SF, then distance.
	type devInfo struct {
		idx   int
		minSF lora.SF
		gain  float64
	}
	infos := make([]devInfo, n)
	for i := 0; i < n; i++ {
		sf, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			sf = lora.MaxSF
		}
		best := 0.0
		for _, g := range gains[i] {
			if g > best {
				best = g
			}
		}
		infos[i] = devInfo{idx: i, minSF: sf, gain: best}
	}
	sort.Slice(infos, func(x, y int) bool {
		if infos[x].minSF != infos[y].minSF {
			return infos[x].minSF < infos[y].minSF
		}
		if infos[x].gain != infos[y].gain {
			return infos[x].gain > infos[y].gain // closer first
		}
		return infos[x].idx < infos[y].idx
	})

	nextCh := 0
	for _, info := range infos {
		sf := info.minSF
		// Smallest SF at or above the feasibility bound with quota left.
		for sf < lora.MaxSF && quota[sf] == 0 {
			sf++
		}
		if quota[sf] > 0 {
			quota[sf]--
		}
		a.SF[info.idx] = sf
		tp, ok := model.MinFeasibleTP(gains, info.idx, sf, p.Plan)
		if !ok {
			tp = p.Plan.MaxTxPowerDBm
		}
		a.TPdBm[info.idx] = tp
		a.Channel[info.idx] = nextCh
		nextCh = (nextCh + 1) % p.Plan.NumChannels()
	}
	return a, nil
}

// assert interface compliance.
var (
	_ Allocator = Legacy{}
	_ Allocator = RSLoRa{}
)

// EvaluateMinEE is a convenience used by experiments and tests: it builds
// an evaluator for the allocation and returns the network's minimum energy
// efficiency in bits per joule.
func EvaluateMinEE(net *model.Network, p model.Params, a model.Allocation, mode model.Mode) (float64, error) {
	e, err := model.NewEvaluator(net, p, a, mode)
	if err != nil {
		return 0, fmt.Errorf("alloc: evaluate: %w", err)
	}
	min, _ := e.MinEE()
	return min, nil
}
