// Package core ties the EF-LoRa building blocks together behind one
// convenient API: build a deployment, run an allocator, evaluate the
// analytical model, simulate packet traffic and derive lifetimes. The
// command-line tools and examples drive this package.
package core

import (
	"fmt"
	"math"
	"strings"

	"eflora/internal/alloc"
	"eflora/internal/geo"
	"eflora/internal/model"
	"eflora/internal/rng"
	"eflora/internal/sim"
	"eflora/internal/stats"
)

// Scenario describes a deployment to generate: devices uniformly in a disc
// and gateways on the paper's mesh-grid positions.
type Scenario struct {
	// Devices and Gateways count the nodes (defaults 1000 and 3).
	Devices, Gateways int
	// RadiusM is the deployment disc radius (default 5000, the paper's
	// 5 km disc).
	RadiusM float64
	// Seed drives device placement.
	Seed uint64
	// Params overrides the network parameters; zero value means
	// model.DefaultParams().
	Params *model.Params
}

func (s Scenario) withDefaults() Scenario {
	if s.Devices <= 0 {
		s.Devices = 1000
	}
	if s.Gateways <= 0 {
		s.Gateways = 3
	}
	if s.RadiusM <= 0 {
		s.RadiusM = 5000
	}
	return s
}

// Network is a built deployment ready for allocation and simulation.
type Network struct {
	Net    *model.Network
	Params model.Params
	Seed   uint64
}

// Build generates the deployment of a scenario. A non-finite radius is
// an error; a zero one means the default.
func Build(s Scenario) (*Network, error) {
	if math.IsNaN(s.RadiusM) || math.IsInf(s.RadiusM, 0) {
		return nil, fmt.Errorf("core: radius %v m is not finite", s.RadiusM)
	}
	s = s.withDefaults()
	p := model.DefaultParams()
	if s.Params != nil {
		p = *s.Params
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	r := rng.New(s.Seed)
	net := &model.Network{
		Devices:  geo.UniformDisc(s.Devices, s.RadiusM, r),
		Gateways: geo.GridGateways(s.Gateways, s.RadiusM),
	}
	if err := net.Validate(p); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Network{Net: net, Params: p, Seed: s.Seed}, nil
}

// AllocatorNames lists the names AllocatorByName accepts, aliases aside:
// every strategy key in alloc.Strategies() order, then "eflora-fixed".
func AllocatorNames() []string {
	var names []string
	for _, s := range alloc.Strategies() {
		names = append(names, s.Key)
	}
	return append(names, "eflora-fixed")
}

// AllocatorByName resolves any registered strategy key or alias from
// alloc.Strategies(), plus the "eflora-fixed" ablation, for which fixedTP
// pins the power (case-insensitive).
func AllocatorByName(name string, opts alloc.Options, fixedTP float64) (alloc.Allocator, error) {
	switch strings.ToLower(name) {
	case "eflora-fixed", "ef-lora-fixed":
		o := opts
		o.FixedTPdBm = &fixedTP
		return alloc.NewEFLoRa(o), nil
	}
	s, err := alloc.StrategyByKey(name)
	if err != nil {
		return nil, fmt.Errorf("core: unknown allocator %q (want one of %s)", name, strings.Join(AllocatorNames(), ", "))
	}
	return s.New(opts), nil
}

// Allocate runs the named allocator on the network.
func (n *Network) Allocate(name string, opts alloc.Options) (model.Allocation, error) {
	al, err := AllocatorByName(name, opts, n.Params.Plan.MaxTxPowerDBm)
	if err != nil {
		return model.Allocation{}, err
	}
	return al.Allocate(n.Net, n.Params, rng.New(n.Seed+1))
}

// Evaluation summarizes the analytical model's view of an allocation.
type Evaluation struct {
	// EE is bits per joule per device; PRR the modelled reception ratio.
	EE, PRR []float64
	// MinEE, MeanEE in bits per joule; Jain is Jain's fairness index of
	// the EE distribution.
	MinEE, MeanEE, Jain float64
	// MinIndex is the bottleneck device.
	MinIndex int
}

// Evaluate runs the analytical model (exact mode) on an allocation.
func (n *Network) Evaluate(a model.Allocation) (*Evaluation, error) {
	ev, err := model.NewEvaluator(n.Net, n.Params, a, model.ModeExact)
	if err != nil {
		return nil, err
	}
	out := &Evaluation{EE: ev.EEAll()}
	out.PRR = make([]float64, len(out.EE))
	for i := range out.PRR {
		out.PRR[i] = ev.PRR(i)
	}
	out.MinEE, out.MinIndex = ev.MinEE()
	out.MeanEE = stats.Mean(out.EE)
	out.Jain = stats.JainIndex(out.EE)
	return out, nil
}

// Simulate runs the packet-level simulator on an allocation with cfg
// passed through unchanged: the schedule streams through time windows in
// O(devices + window) memory on the calling goroutine.
func (n *Network) Simulate(a model.Allocation, cfg sim.Config) (*sim.Result, error) {
	return sim.Run(n.Net, n.Params, a, cfg)
}

// BitsPerMilliJoule converts the repository's bits-per-joule EE values to
// the paper's reporting unit.
func BitsPerMilliJoule(bitsPerJoule float64) float64 { return bitsPerJoule / 1000 }
