package model

import (
	"fmt"
	"math"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/radio"
)

// Params holds everything about a LoRa network that is not the positions of
// its nodes: the channel plan, PHY configuration, traffic pattern, path-loss
// environment classes and the device energy profile.
type Params struct {
	// Plan is the regional channel plan (channels + TX power levels).
	Plan lora.Plan
	// BandwidthHz of the uplink channels (the paper fixes 125 kHz).
	BandwidthHz float64
	// CodingRate of the FEC (the paper fixes 4/7).
	CodingRate lora.CodingRate
	// PHYPayloadBytes is the radio payload per packet (paper: 21 bytes).
	PHYPayloadBytes int
	// AppPayloadBytes is the useful data per packet, the L of Eq. 2
	// (paper: 8 bytes).
	AppPayloadBytes int
	// PacketIntervalS is the reporting period T_g in seconds; every device
	// sends one packet per interval (paper Section III-A).
	PacketIntervalS float64
	// TrafficDutyCycle, when positive, switches to duty-cycle-driven
	// traffic: every device reports every ToA(SF)/duty seconds, i.e. it
	// transmits at this fraction of airtime regardless of its spreading
	// factor — the paper's evaluation setting ("duty cycle was set to
	// 1%", the regulatory maximum). Under this model SF7 devices send
	// ~25x more packets than SF12 devices and collision load is
	// proportional to group population. Zero keeps the fixed
	// PacketIntervalS for everyone.
	TrafficDutyCycle float64
	// Environments lists the path-loss classes; a device's Env index in
	// Network selects one. At least one entry is required.
	Environments []PathLoss
	// NoiseDBm is the AWGN power N0 at the receiver in dBm over one
	// channel bandwidth (thermal floor + noise figure).
	NoiseDBm float64
	// GatewayCapacity is the number of packets a gateway can demodulate
	// concurrently (SX1301: 8).
	GatewayCapacity int
	// Profile is the device energy model.
	Profile radio.Profile
	// Objective selects the per-device metric whose network minimum the
	// evaluator reports and the greedy allocator maximizes. The default
	// is the paper's energy efficiency; ObjectiveThroughput realizes the
	// throughput-fairness variant the paper lists as future work.
	Objective Objective
}

// Objective is the max-min optimization target.
type Objective int

const (
	// ObjectiveEnergyEfficiency is the paper's metric: delivered bits per
	// joule (the zero value, so existing configurations keep it).
	ObjectiveEnergyEfficiency Objective = iota
	// ObjectiveThroughput optimizes delivered bits per second instead —
	// L·PRR/T_g, the paper's future-work throughput fairness.
	ObjectiveThroughput
)

// DefaultParams returns the configuration of the paper's evaluation:
// US915 sub-band 1 (902.3-903.7 MHz), 125 kHz, CR 4/7, 8-byte application
// payload in a 21-byte PHY payload, suburban LoS path loss with β = 2.7,
// an SX1301-class 8-packet gateway and the Casals energy profile. The
// default reporting interval keeps SF12 devices at the 1% regulatory duty
// cycle.
func DefaultParams() Params {
	const freq = 903e6
	plan := lora.US915Sub1()
	// The paper's evaluation treats 14 dBm as the largest transmission
	// power (its Fig. 9 ablation pins "the largest transmission power,
	// 14 dBm") even on the US915 band, so the default plan caps there;
	// US915 hardware may go to 20 dBm (lora.US915Sub1 keeps that limit).
	plan.MaxTxPowerDBm = 14
	return Params{
		Plan:            plan,
		BandwidthHz:     125e3,
		CodingRate:      lora.CR47,
		PHYPayloadBytes: 21,
		AppPayloadBytes: 8,
		PacketIntervalS: 181, // SF12 air time ~1.81 s -> 1% duty cycle
		Environments:    []PathLoss{LoSPathLoss(freq, 2.7)},
		NoiseDBm:        -117, // -174 + 10log10(125e3) + 6 dB noise figure
		GatewayCapacity: 8,
		Profile:         radio.DefaultProfile(),
	}
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	if err := p.Plan.Validate(); err != nil {
		return err
	}
	if p.BandwidthHz <= 0 {
		return fmt.Errorf("model: bandwidth %v must be positive", p.BandwidthHz)
	}
	if !p.CodingRate.Valid() {
		return fmt.Errorf("model: invalid coding rate %d", int(p.CodingRate))
	}
	if p.PHYPayloadBytes <= 0 || p.AppPayloadBytes <= 0 {
		return fmt.Errorf("model: payload sizes must be positive")
	}
	if p.AppPayloadBytes > p.PHYPayloadBytes {
		return fmt.Errorf("model: app payload %dB exceeds PHY payload %dB",
			p.AppPayloadBytes, p.PHYPayloadBytes)
	}
	if !positiveFinite(p.PacketIntervalS) {
		return fmt.Errorf("model: packet interval %v must be positive and finite", p.PacketIntervalS)
	}
	if !(p.TrafficDutyCycle >= 0 && p.TrafficDutyCycle <= 0.5) {
		return fmt.Errorf("model: traffic duty cycle %v outside [0, 0.5]", p.TrafficDutyCycle)
	}
	if p.Objective != ObjectiveEnergyEfficiency && p.Objective != ObjectiveThroughput {
		return fmt.Errorf("model: invalid objective %d", int(p.Objective))
	}
	if len(p.Environments) == 0 {
		return fmt.Errorf("model: at least one path-loss environment is required")
	}
	for i, env := range p.Environments {
		if err := env.Validate(); err != nil {
			return fmt.Errorf("environment %d: %w", i, err)
		}
	}
	if p.GatewayCapacity <= 0 {
		return fmt.Errorf("model: gateway capacity must be positive")
	}
	return nil
}

// AppPayloadBits returns L in bits, the numerator of Eq. 2.
func (p Params) AppPayloadBits() float64 { return float64(p.AppPayloadBytes) * 8 }

// TimeOnAir returns the air time of one packet at spreading factor s.
func (p Params) TimeOnAir(s lora.SF) float64 {
	return lora.TimeOnAir(p.PHYPayloadBytes, s, p.BandwidthHz, p.CodingRate)
}

// IntervalFor returns device i's reporting interval when using spreading
// factor s: a per-device override wins, then duty-cycle-driven traffic
// (ToA/duty), then the network-wide PacketIntervalS.
func (p Params) IntervalFor(net *Network, i int, s lora.SF) float64 {
	if net.IntervalS != nil {
		return net.IntervalS[i]
	}
	if p.TrafficDutyCycle > 0 {
		return p.TimeOnAir(s) / p.TrafficDutyCycle
	}
	return p.PacketIntervalS
}

// Network is a concrete deployment: device and gateway positions plus
// optional per-device attributes.
type Network struct {
	// Devices and Gateways are positions in meters.
	Devices  []geo.Point
	Gateways []geo.Point
	// Env optionally assigns each device a path-loss environment class
	// (index into Params.Environments). nil means class 0 for everyone.
	Env []int
	// IntervalS optionally overrides the reporting period per device
	// (paper Section III-E, "different transmission rates"). nil means
	// every device uses Params.PacketIntervalS.
	IntervalS []float64
}

// N returns the number of end devices.
func (n *Network) N() int { return len(n.Devices) }

// G returns the number of gateways.
func (n *Network) G() int { return len(n.Gateways) }

// EnvOf returns the environment class of device i.
func (n *Network) EnvOf(i int) int {
	if n.Env == nil {
		return 0
	}
	return n.Env[i]
}

// Subset returns a new network holding only the devices named by idx (in
// the given order), against the full gateway set. Per-device attributes
// (Env, IntervalS) follow their devices; the Gateways slice is shared, not
// copied, since deployments never mutate it. The hierarchical allocator
// uses this to hand one spatial cell to the exact greedy.
func (n *Network) Subset(idx []int) *Network {
	sub := &Network{
		Devices:  make([]geo.Point, len(idx)),
		Gateways: n.Gateways,
	}
	for j, i := range idx {
		sub.Devices[j] = n.Devices[i]
	}
	if n.Env != nil {
		sub.Env = make([]int, len(idx))
		for j, i := range idx {
			sub.Env[j] = n.Env[i]
		}
	}
	if n.IntervalS != nil {
		sub.IntervalS = make([]float64, len(idx))
		for j, i := range idx {
			sub.IntervalS[j] = n.IntervalS[i]
		}
	}
	return sub
}

// Validate checks the deployment against params.
func (n *Network) Validate(p Params) error {
	if len(n.Devices) == 0 {
		return fmt.Errorf("model: network has no devices")
	}
	if len(n.Gateways) == 0 {
		return fmt.Errorf("model: network has no gateways")
	}
	if n.Env != nil {
		if len(n.Env) != len(n.Devices) {
			return fmt.Errorf("model: Env length %d != devices %d", len(n.Env), len(n.Devices))
		}
		for i, e := range n.Env {
			if e < 0 || e >= len(p.Environments) {
				return fmt.Errorf("model: device %d has invalid environment %d", i, e)
			}
		}
	}
	if n.IntervalS != nil {
		if len(n.IntervalS) != len(n.Devices) {
			return fmt.Errorf("model: IntervalS length %d != devices %d", len(n.IntervalS), len(n.Devices))
		}
		for i, iv := range n.IntervalS {
			if !positiveFinite(iv) {
				return fmt.Errorf("model: device %d interval %v must be positive and finite", i, iv)
			}
		}
	}
	return nil
}

// positiveFinite reports whether v is a usable duration: above zero and
// neither NaN nor infinite.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Allocation assigns each device its spreading factor, transmission power
// and channel — the (S, P, C) of the paper's optimization problem (Eq. 1).
type Allocation struct {
	SF      []lora.SF
	TPdBm   []float64
	Channel []int
}

// NewAllocation returns an allocation for n devices initialised to SF7,
// the minimum TX power of the given plan, and channel 0.
func NewAllocation(n int, plan lora.Plan) Allocation {
	a := Allocation{
		SF:      make([]lora.SF, n),
		TPdBm:   make([]float64, n),
		Channel: make([]int, n),
	}
	for i := 0; i < n; i++ {
		a.SF[i] = lora.SF7
		a.TPdBm[i] = plan.MinTxPowerDBm
	}
	return a
}

// Clone returns a deep copy.
func (a Allocation) Clone() Allocation {
	c := Allocation{
		SF:      make([]lora.SF, len(a.SF)),
		TPdBm:   make([]float64, len(a.TPdBm)),
		Channel: make([]int, len(a.Channel)),
	}
	copy(c.SF, a.SF)
	copy(c.TPdBm, a.TPdBm)
	copy(c.Channel, a.Channel)
	return c
}

// Validate checks the allocation against the paper's constraints C1-C3.
func (a Allocation) Validate(n int, p Params) error {
	if len(a.SF) != n || len(a.TPdBm) != n || len(a.Channel) != n {
		return fmt.Errorf("model: allocation sized %d/%d/%d for %d devices",
			len(a.SF), len(a.TPdBm), len(a.Channel), n)
	}
	for i := 0; i < n; i++ {
		if !a.SF[i].Valid() {
			return fmt.Errorf("model: device %d has invalid SF %d", i, int(a.SF[i]))
		}
		if a.TPdBm[i] < p.Plan.MinTxPowerDBm-1e-9 || a.TPdBm[i] > p.Plan.MaxTxPowerDBm+1e-9 {
			return fmt.Errorf("model: device %d TP %v outside [%v, %v]",
				i, a.TPdBm[i], p.Plan.MinTxPowerDBm, p.Plan.MaxTxPowerDBm)
		}
		if a.Channel[i] < 0 || a.Channel[i] >= p.Plan.NumChannels() {
			return fmt.Errorf("model: device %d channel %d outside [0, %d)",
				i, a.Channel[i], p.Plan.NumChannels())
		}
	}
	return nil
}
