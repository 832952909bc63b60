package model

import (
	"runtime"
	"testing"
	"time"

	"eflora/internal/geo"
	"eflora/internal/rng"
)

// TestGainsCacheDoesNotRetainNetwork checks that a cached gains matrix does
// not keep the network it was computed for reachable. alloc.Incremental
// hands Gains a pointer to a network inside itself, so an entry holding
// that pointer would keep a dropped Incremental, evaluator and all, alive
// until eight newer networks evicted it.
func TestGainsCacheDoesNotRetainNetwork(t *testing.T) {
	collected := make(chan struct{})
	func() {
		net := &Network{
			Devices:  geo.UniformDisc(30, 3500, rng.New(5)),
			Gateways: geo.GridGateways(2, 3500),
		}
		Gains(net, DefaultParams())
		runtime.SetFinalizer(net, func(*Network) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("a network passed to Gains is still reachable after a GC")
	}
}
