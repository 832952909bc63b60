package alloc

import (
	"testing"

	"eflora/internal/geo"
	"eflora/internal/model"
	"eflora/internal/rng"
)

func newIncremental(t *testing.T, nDev int) *Incremental {
	t.Helper()
	net := testNetwork(nDev, 2, 31)
	p := model.DefaultParams()
	base, err := NewEFLoRa(Options{}).Allocate(net, p, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(net, p, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inc
}

func TestIncrementalAddDevice(t *testing.T) {
	inc := newIncremental(t, 60)
	n0 := inc.N()
	idx, err := inc.AddDevice(geo.Point{X: 500, Y: 500}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx != n0 || inc.N() != n0+1 {
		t.Fatalf("AddDevice index %d, N %d; want %d, %d", idx, inc.N(), n0, n0+1)
	}
	a := inc.Allocation()
	p := model.DefaultParams()
	if err := a.Validate(inc.N(), p); err != nil {
		t.Fatalf("post-add allocation invalid: %v", err)
	}
	// The newcomer must have a feasible assignment.
	gains := model.Gains(inc.Network(), p)
	if !model.Feasible(gains, idx, a.SF[idx], a.TPdBm[idx]) {
		t.Errorf("newcomer got infeasible (%v, %v dBm)", a.SF[idx], a.TPdBm[idx])
	}
}

func TestIncrementalAddKeepsOthersUnchanged(t *testing.T) {
	inc := newIncremental(t, 50)
	before := inc.Allocation()
	if _, err := inc.AddDevice(geo.Point{X: -800, Y: 200}, 0); err != nil {
		t.Fatal(err)
	}
	after := inc.Allocation()
	for i := 0; i < len(before.SF); i++ {
		if before.SF[i] != after.SF[i] || before.TPdBm[i] != after.TPdBm[i] || before.Channel[i] != after.Channel[i] {
			t.Fatalf("existing device %d changed during incremental add", i)
		}
	}
}

// TestIncrementalAddDeviceRejectsBadEnv pins AddDevice's validation: an
// environment class outside [0, len(Environments)) is an error, and the
// rejected call leaves the device count and allocation untouched.
func TestIncrementalAddDeviceRejectsBadEnv(t *testing.T) {
	inc := newIncremental(t, 40)
	n0, before := inc.N(), inc.Allocation()
	nEnv := len(model.DefaultParams().Environments)
	for _, env := range []int{-1, nEnv, nEnv + 3} {
		if _, err := inc.AddDevice(geo.Point{X: 100, Y: -300}, env); err == nil {
			t.Errorf("AddDevice(env=%d) accepted", env)
		}
		if inc.N() != n0 {
			t.Fatalf("AddDevice(env=%d) rejected but N went %d -> %d", env, n0, inc.N())
		}
		after := inc.Allocation()
		if len(after.SF) != len(before.SF) {
			t.Fatalf("AddDevice(env=%d) rejected but the allocation grew to %d", env, len(after.SF))
		}
		for i := range before.SF {
			if before.SF[i] != after.SF[i] || before.TPdBm[i] != after.TPdBm[i] || before.Channel[i] != after.Channel[i] {
				t.Fatalf("AddDevice(env=%d) rejected but device %d changed", env, i)
			}
		}
	}
	// The maintainer still works after the rejections.
	if _, err := inc.AddDevice(geo.Point{X: 100, Y: -300}, 0); err != nil {
		t.Fatal(err)
	}
	if inc.N() != n0+1 {
		t.Fatalf("N = %d after a valid add, want %d", inc.N(), n0+1)
	}
}

func TestIncrementalRemoveDevice(t *testing.T) {
	inc := newIncremental(t, 40)
	allocBefore := inc.Allocation()
	if err := inc.RemoveDevice(10); err != nil {
		t.Fatal(err)
	}
	if inc.N() != 39 {
		t.Fatalf("N after remove = %d", inc.N())
	}
	after := inc.Allocation()
	// Device 11 shifted into slot 10.
	if after.SF[10] != allocBefore.SF[11] {
		t.Error("remove did not shift subsequent devices")
	}
	if _, err := inc.MinEE(); err != nil {
		t.Fatalf("post-remove state unusable: %v", err)
	}
}

func TestIncrementalRemoveBounds(t *testing.T) {
	inc := newIncremental(t, 5)
	if err := inc.RemoveDevice(-1); err == nil {
		t.Error("negative index accepted")
	}
	if err := inc.RemoveDevice(99); err == nil {
		t.Error("out-of-range index accepted")
	}
	for i := 0; i < 4; i++ {
		if err := inc.RemoveDevice(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.RemoveDevice(0); err == nil {
		t.Error("removing the last device should fail")
	}
}

func TestIncrementalReoptimize(t *testing.T) {
	inc := newIncremental(t, 50)
	// Churn the network, then reoptimize; min EE must not regress versus
	// the churned state.
	for i := 0; i < 5; i++ {
		if _, err := inc.AddDevice(geo.Point{X: float64(200 * i), Y: -300}, 0); err != nil {
			t.Fatal(err)
		}
	}
	churned, err := inc.MinEE()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := inc.Reoptimize()
	if err != nil {
		t.Fatal(err)
	}
	// A fresh greedy follows its own trajectory and may land marginally
	// below a well-maintained incremental state; it must stay in the same
	// ballpark.
	if rep.FinalMinEE < 0.9*churned {
		t.Errorf("reoptimize regressed min EE: %v -> %v", churned, rep.FinalMinEE)
	}
}

func TestIncrementalReassignDevice(t *testing.T) {
	inc := newIncremental(t, 50)
	before, err := inc.MinEE()
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage one device: worst SF at maximum power on channel 0, then
	// ask the incremental maintainer to repair just that device.
	p := model.DefaultParams()
	if err := inc.SetAssignment(7, 12, p.Plan.MaxTxPowerDBm, 0); err != nil {
		t.Fatal(err)
	}
	changed, err := inc.ReassignDevice(7)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("sabotaged device not reassigned")
	}
	after, err := inc.MinEE()
	if err != nil {
		t.Fatal(err)
	}
	if after < 0.9*before {
		t.Errorf("reassign left min EE degraded: %v -> %v", before, after)
	}
	// Everyone else must keep their settings.
	a := inc.Allocation()
	if err := a.Validate(inc.N(), p); err != nil {
		t.Fatalf("post-reassign allocation invalid: %v", err)
	}
	// A second reassign of the same device is a no-op (greedy fixpoint).
	changed, err = inc.ReassignDevice(7)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("reassign of an already-optimal device reported a change")
	}
	if _, err := inc.ReassignDevice(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := inc.ReassignDevice(inc.N()); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestIncrementalReassignKeepsOthersUnchanged(t *testing.T) {
	inc := newIncremental(t, 40)
	before := inc.Allocation()
	if _, err := inc.ReassignDevice(3); err != nil {
		t.Fatal(err)
	}
	after := inc.Allocation()
	for i := 0; i < len(before.SF); i++ {
		if i == 3 {
			continue
		}
		if before.SF[i] != after.SF[i] || before.TPdBm[i] != after.TPdBm[i] || before.Channel[i] != after.Channel[i] {
			t.Fatalf("device %d changed during reassign of device 3", i)
		}
	}
}

func TestIncrementalSetAssignmentValidates(t *testing.T) {
	inc := newIncremental(t, 10)
	if err := inc.SetAssignment(-1, 7, 14, 0); err == nil {
		t.Error("negative index accepted")
	}
	if err := inc.SetAssignment(99, 7, 14, 0); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := inc.SetAssignment(0, 99, 14, 0); err == nil {
		t.Error("invalid SF accepted")
	}
	if err := inc.SetAssignment(0, 7, 14, -1); err == nil {
		t.Error("negative channel accepted")
	}
	if err := inc.SetAssignment(0, 7, 14, 9999); err == nil {
		t.Error("out-of-range channel accepted")
	}
}

// TestIncrementalReassignWarmCacheCoherent drives a long warm reassignment
// campaign with Refresh at pass boundaries, then cross-checks the cached
// evaluator path against a cold evaluation of the same allocation — the
// delta-based bookkeeping must track the committed allocation exactly.
func TestIncrementalReassignWarmCacheCoherent(t *testing.T) {
	inc := newIncremental(t, 50)
	p := model.DefaultParams()
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < inc.N(); i += 7 {
			if _, err := inc.ReassignDevice(i); err != nil {
				t.Fatal(err)
			}
		}
		inc.Refresh()
	}
	a := inc.Allocation()
	if err := a.Validate(inc.N(), p); err != nil {
		t.Fatalf("post-campaign allocation invalid: %v", err)
	}
	cold, err := EvaluateMinEE(inc.Network(), p, a, model.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := inc.MinEE()
	if err != nil {
		t.Fatal(err)
	}
	if cold != warm {
		t.Fatalf("cached-path MinEE %v != cold evaluation %v", warm, cold)
	}
}

// TestIncrementalReassignAllocBudget pins the delta-based reassignment
// path: once the cache is warm, reassigning an already-optimal device must
// not allocate at all. A regression back to rebuild-per-call (gains matrix
// + evaluator construction, ~megabytes per call at paper scale) trips this
// immediately.
func TestIncrementalReassignAllocBudget(t *testing.T) {
	inc := newIncremental(t, 50)
	// Warm the cache and drive device 7 to its greedy fixpoint.
	if _, err := inc.ReassignDevice(7); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := inc.ReassignDevice(7); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm ReassignDevice allocates %v times per call, want 0", avg)
	}
}

func TestNewIncrementalValidates(t *testing.T) {
	net := testNetwork(10, 1, 33)
	p := model.DefaultParams()
	short := model.NewAllocation(3, p.Plan)
	if _, err := NewIncremental(net, p, short, Options{}); err == nil {
		t.Error("mis-sized allocation accepted")
	}
}
