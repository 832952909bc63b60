package model

import (
	"sync"

	"eflora/internal/geo"
)

// gainsCacheSize bounds how many (network, params) gain matrices are
// retained. Experiments run a handful of live networks at a time (one per
// in-flight trial); a small ring keeps hits near-certain without pinning
// every discarded per-trial network's matrix forever.
const gainsCacheSize = 8

// gainsEntry snapshots everything Gains depends on, so a hit is validated
// by content alone: a caller (e.g. alloc.Incremental) may grow or edit the
// same *Network between calls, and an entry holds no reference to the
// network it was computed for, so it never keeps that network's owner
// alive.
type gainsEntry struct {
	devices  []geo.Point
	gateways []geo.Point
	env      []int // nil when the network had no Env slice
	envs     []PathLoss
	gains    [][]float64
}

func (e *gainsEntry) matches(net *Network, p Params) bool {
	if len(e.devices) != len(net.Devices) ||
		len(e.gateways) != len(net.Gateways) ||
		len(e.envs) != len(p.Environments) {
		return false
	}
	if (e.env == nil) != (net.Env == nil) || len(e.env) != len(net.Env) {
		return false
	}
	for i, d := range net.Devices {
		if e.devices[i] != d {
			return false
		}
	}
	for k, g := range net.Gateways {
		if e.gateways[k] != g {
			return false
		}
	}
	for i, v := range net.Env {
		if e.env[i] != v {
			return false
		}
	}
	for i, pl := range p.Environments {
		if e.envs[i] != pl {
			return false
		}
	}
	return true
}

var gainsCache struct {
	sync.Mutex
	entries [gainsCacheSize]*gainsEntry
	next    int
}

// Gains returns the [device][gateway] linear path attenuation matrix.
// Matrices are cached per (deployment, params): repeated calls for the same
// deployment — every trial's evaluator, allocator and simulator asks for
// the same matrix — return one shared computation. The cache validates by
// content (device and gateway positions, environment assignment and
// path-loss parameters), so in-place network edits are detected; the
// validation scan is O(n+g) comparisons against an O(n·g) pow-heavy
// recompute. The returned matrix is shared and must be treated as
// read-only.
func Gains(net *Network, p Params) [][]float64 {
	gainsCache.Lock()
	for _, e := range gainsCache.entries {
		if e != nil && e.matches(net, p) {
			g := e.gains
			gainsCache.Unlock()
			return g
		}
	}
	gainsCache.Unlock()

	// Compute outside the lock so concurrent trials on distinct networks
	// do not serialize; a racing duplicate insert is harmless.
	n, g := net.N(), net.G()
	rows := make([]float64, n*g)
	gains := make([][]float64, n)
	for i, d := range net.Devices {
		env := p.Environments[net.EnvOf(i)]
		row := rows[i*g : (i+1)*g : (i+1)*g]
		for k, gw := range net.Gateways {
			row[k] = env.Gain(d.Dist(gw))
		}
		gains[i] = row
	}

	e := &gainsEntry{
		devices:  append([]geo.Point(nil), net.Devices...),
		gateways: append([]geo.Point(nil), net.Gateways...),
		envs:     append([]PathLoss(nil), p.Environments...),
		gains:    gains,
	}
	if net.Env != nil {
		e.env = append([]int(nil), net.Env...)
	}
	gainsCache.Lock()
	gainsCache.entries[gainsCache.next] = e
	gainsCache.next = (gainsCache.next + 1) % gainsCacheSize
	gainsCache.Unlock()
	return gains
}
