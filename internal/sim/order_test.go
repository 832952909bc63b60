package sim

import (
	"slices"
	"testing"

	"eflora/internal/rng"
)

// scanLike builds a window of devices in ascending order, each
// contributing strictly increasing starts drawn by next, each start as
// attempts 1 through attempts of the device's packets (so attempts > 1
// ties a device's retransmissions with its first transmission).
func scanLike(devices, perDevice int, attempts uint8, next func(dev, m int) float64) []txEntry {
	var es []txEntry
	for d := 0; d < devices; d++ {
		prev := -1.0
		for m := 0; m < perDevice; m++ {
			s := next(d, m)
			if s <= prev {
				continue
			}
			for at := uint8(1); at <= attempts; at++ {
				es = append(es, txEntry{start: s, key: entryKey(d, at)})
			}
			prev = s
		}
	}
	return es
}

// TestOrderWindowMatchesSort is the differential check of the bucket
// pass against a comparison sort on the (start, device, attempt) key, on
// windows shaped like the ones the simulator produces and the ones that
// stress the bucket arithmetic, each in scan order and reversed.
func TestOrderWindowMatchesSort(t *testing.T) {
	r := rng.New(5)
	windows := map[string][]txEntry{
		"empty":  nil,
		"single": {{start: 12.5, key: entryKey(3, 1)}},
		"uniform": scanLike(1000, 3, 1, func(_, m int) float64 {
			return 100 + float64(m) + r.Float64()
		}),
		// Starts on a coarse grid: many exact ties across devices.
		"grid-ties": scanLike(2000, 2, 1, func(_, m int) float64 {
			return float64(m)*10 + float64(r.Intn(50))*0.125
		}),
		// A few devices per start value: small tie groups that stay
		// below the insertion-sort limit, so the insertion sort alone
		// puts them in device order.
		"small-ties": scanLike(1000, 1, 1, func(int, int) float64 {
			return float64(r.Intn(400)) * 0.5
		}),
		"all-equal": scanLike(500, 1, 1, func(int, int) float64 { return 7.25 }),
		// Retransmissions tied with their device's first transmission,
		// in the shortcut, the insertion sort and the comparison sort.
		"all-equal-retries": scanLike(200, 1, 4, func(int, int) float64 { return 7.25 }),
		"small-ties-retries": scanLike(300, 1, 2, func(int, int) float64 {
			return float64(r.Intn(400)) * 0.5
		}),
		"clustered-retries": scanLike(20000, 2, 3, func(_, m int) float64 {
			return float64(m)*500 + 3 + float64(r.Intn(8))*1e-9
		}),
		// 100k entries in two tight clusters, one bucket each: quadratic
		// bucket sorting would take minutes.
		"clustered": scanLike(50000, 2, 1, func(_, m int) float64 {
			return float64(m)*500 + 3 + float64(r.Intn(8))*1e-9
		}),
		// Two distinct starts: every entry lands in the first or last
		// bucket.
		"two-values": scanLike(300, 1, 1, func(d, _ int) float64 { return float64(d % 2) }),
	}
	var dst []txEntry
	var end []int32
	for name, es := range windows {
		want := slices.Clone(es)
		slices.SortFunc(want, compareEntries)
		// The order must not depend on the order the entries come in:
		// the simulator appends due retransmissions after the scan.
		reversed := slices.Clone(es)
		slices.Reverse(reversed)
		for _, in := range [][]txEntry{es, reversed} {
			dst, end = orderWindow(dst, slices.Clone(in), end)
			if len(dst) != len(want) {
				t.Fatalf("%s: %d entries out, %d in", name, len(dst), len(want))
			}
			for i := range want {
				if dst[i].start != want[i].start || dst[i].key != want[i].key {
					t.Fatalf("%s: entry %d = (%v, %d, %d), want (%v, %d, %d)", name, i,
						dst[i].start, dst[i].dev(), dst[i].attempt(), want[i].start, want[i].dev(), want[i].attempt())
				}
			}
		}
	}
}
