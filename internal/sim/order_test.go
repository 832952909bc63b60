package sim

import (
	"slices"
	"testing"

	"eflora/internal/rng"
)

// scanLike builds a window the way the device scan does: devices in
// ascending order, each contributing strictly increasing starts drawn by
// next (count entries in all).
func scanLike(devices, perDevice int, next func(dev, m int) float64) []txEntry {
	var es []txEntry
	for d := 0; d < devices; d++ {
		prev := -1.0
		for m := 0; m < perDevice; m++ {
			s := next(d, m)
			if s <= prev {
				continue
			}
			es = append(es, txEntry{start: s, dev: int32(d)})
			prev = s
		}
	}
	return es
}

// TestOrderWindowMatchesSort is the differential check of the bucket
// pass against a comparison sort on the (start, device) key, on windows
// shaped like the ones the simulator produces and the ones that stress
// the bucket arithmetic.
func TestOrderWindowMatchesSort(t *testing.T) {
	r := rng.New(5)
	windows := map[string][]txEntry{
		"empty":  nil,
		"single": {{start: 12.5, dev: 3}},
		"uniform": scanLike(1000, 3, func(_, m int) float64 {
			return 100 + float64(m) + r.Float64()
		}),
		// Starts on a coarse grid: many exact ties across devices.
		"grid-ties": scanLike(2000, 2, func(_, m int) float64 {
			return float64(m)*10 + float64(r.Intn(50))*0.125
		}),
		// A few devices per start value: small tie groups that stay
		// below the insertion-sort limit, so the stable insertion sort
		// alone keeps them in device order.
		"small-ties": scanLike(1000, 1, func(int, int) float64 {
			return float64(r.Intn(400)) * 0.5
		}),
		"all-equal": scanLike(500, 1, func(int, int) float64 { return 7.25 }),
		// 100k entries in two tight clusters, one bucket each: quadratic
		// bucket sorting would take minutes.
		"clustered": scanLike(50000, 2, func(_, m int) float64 {
			return float64(m)*500 + 3 + float64(r.Intn(8))*1e-9
		}),
		// Two distinct starts: every entry lands in the first or last
		// bucket.
		"two-values": scanLike(300, 1, func(d, _ int) float64 { return float64(d % 2) }),
	}
	var dst []txEntry
	var end []int32
	for name, es := range windows {
		want := slices.Clone(es)
		slices.SortFunc(want, compareEntries)
		dst, end = orderWindow(dst, slices.Clone(es), end)
		if len(dst) != len(want) {
			t.Fatalf("%s: %d entries out, %d in", name, len(dst), len(want))
		}
		for i := range want {
			if dst[i].start != want[i].start || dst[i].dev != want[i].dev {
				t.Fatalf("%s: entry %d = (%v, %d), want (%v, %d)",
					name, i, dst[i].start, dst[i].dev, want[i].start, want[i].dev)
			}
		}
	}
}
