//go:build !race

// The race detector's instrumentation allocates on the append path, so
// these budgets hold only in a plain build.

package statestore

import "testing"

// TestAppendAllocatesNothing pins the serving loop's WAL path as
// allocation-free once warm, metrics publication included.
func TestAppendAllocatesNothing(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	d := delta(1, 2, 9)
	mustAppendSync(t, s, d, 0)
	if got := testing.AllocsPerRun(50, func() {
		if _, err := s.Append(d, 1); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Append allocates %v per call", got)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, err := s.AppendSync(d, 1); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("AppendSync allocates %v per call", got)
	}
}
