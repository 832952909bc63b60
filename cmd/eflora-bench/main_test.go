package main

import (
	"os"
	"strings"
	"testing"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

const sampleOutput = `goos: linux
goarch: amd64
pkg: eflora
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorSequential 	       3	 41319687 ns/op	11579672 B/op	  202082 allocs/op
BenchmarkSimulatorParallel-4 	       3	 38295278 ns/op	11579672 B/op	  202082 allocs/op
BenchmarkTimeOnAir 	12345678	        95.31 ns/op
some unrelated line
PASS
ok  	eflora	3.021s
`

func TestParseBenchOutput(t *testing.T) {
	benches, host, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if host.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" || host.GOOS != "linux" || host.GOARCH != "amd64" {
		t.Errorf("host = %+v", host)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(benches), benches)
	}
	b := benches[0]
	if b.Name != "BenchmarkSimulatorSequential" || b.Iterations != 3 ||
		b.NsPerOp != 41319687 || b.BytesPerOp != 11579672 || b.AllocsPerOp != 202082 {
		t.Errorf("benches[0] = %+v", b)
	}
	if benches[1].Name != "BenchmarkSimulatorParallel-4" {
		t.Errorf("benches[1] = %+v", benches[1])
	}
	// ns-only line (no -benchmem columns) still parses.
	if benches[2].NsPerOp != 95.31 || benches[2].BytesPerOp != 0 {
		t.Errorf("benches[2] = %+v", benches[2])
	}
}

func rec(bs ...Benchmark) Recording { return Recording{Benchmarks: bs} }

func TestDiffRecordings(t *testing.T) {
	old := rec(
		Benchmark{Name: "A", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		Benchmark{Name: "B", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		Benchmark{Name: "OnlyOld", NsPerOp: 1},
	)
	cur := rec(
		Benchmark{Name: "A", NsPerOp: 120, BytesPerOp: 500, AllocsPerOp: 10}, // within 1.3x
		Benchmark{Name: "B", NsPerOp: 150, BytesPerOp: 1000, AllocsPerOp: 20},
		Benchmark{Name: "OnlyNew", NsPerOp: 1},
	)
	regs, unmatched := diffRecordings(old, cur, 1.3)
	if len(unmatched) != 2 {
		t.Errorf("unmatched = %v, want [OnlyNew OnlyOld]", unmatched)
	}
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want ns and allocs of B", regs)
	}
	for _, r := range regs {
		if r.Name != "B" {
			t.Errorf("unexpected regression %+v", r)
		}
	}
	if regs[0].Metric != "ns/op" || regs[1].Metric != "allocs/op" {
		t.Errorf("metrics = %s, %s", regs[0].Metric, regs[1].Metric)
	}
}

func TestDiffZeroToNonzero(t *testing.T) {
	old := rec(Benchmark{Name: "A", NsPerOp: 100, AllocsPerOp: 0})
	cur := rec(Benchmark{Name: "A", NsPerOp: 100, AllocsPerOp: 5})
	regs, _ := diffRecordings(old, cur, 10)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Errorf("regs = %+v, want one allocs/op regression", regs)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	in := Recording{
		Description: "test",
		Date:        "2026-08-06",
		Host:        Host{GOOS: "linux", GOARCH: "amd64", CPU: "x", CPUs: 1},
		Benchmarks: []Benchmark{
			{Name: "A", Iterations: 3, NsPerOp: 1.5, BytesPerOp: 2, AllocsPerOp: 3},
			{Name: "B", Iterations: 1, NsPerOp: 10, BytesPerOp: 20, AllocsPerOp: 30},
		},
	}
	var b strings.Builder
	if err := writeRecording(&b, in); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/rec.json"
	if err := writeFile(path, b.String()); err != nil {
		t.Fatal(err)
	}
	out, err := readRecording(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Description != in.Description || out.Host != in.Host || len(out.Benchmarks) != 2 ||
		out.Benchmarks[0] != in.Benchmarks[0] || out.Benchmarks[1] != in.Benchmarks[1] {
		t.Errorf("round-trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// TestParseExistingRecording guards the schema against drift: the
// checked-in recording the CI scaling gate diffs against must stay
// readable.
func TestParseExistingRecording(t *testing.T) {
	recFile, err := readRecording("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(recFile.Benchmarks) == 0 || recFile.Host.GOOS == "" {
		t.Errorf("BENCH_sim.json parsed to %+v", recFile)
	}
}

func TestSplitProcs(t *testing.T) {
	cases := []struct {
		name string
		base string
		n    int
	}{
		{"BenchmarkSimulatorSequential", "BenchmarkSimulatorSequential", 1},
		{"BenchmarkSimulatorSequential-2", "BenchmarkSimulatorSequential", 2},
		{"BenchmarkDecodePushData/scratch-16", "BenchmarkDecodePushData/scratch", 16},
		{"BenchmarkFoo-bar", "BenchmarkFoo-bar", 1},
	}
	for _, c := range cases {
		base, n := splitProcs(c.name)
		if base != c.base || n != c.n {
			t.Errorf("splitProcs(%q) = %q, %d; want %q, %d", c.name, base, n, c.base, c.n)
		}
	}
}

func TestDiffScaling(t *testing.T) {
	old := rec(
		Benchmark{Name: "A", NsPerOp: 100},
		Benchmark{Name: "A-2", NsPerOp: 60}, // 1.67x speedup
		Benchmark{Name: "B", NsPerOp: 100},
		Benchmark{Name: "B-2", NsPerOp: 60}, // 1.67x speedup
		Benchmark{Name: "OnlyOld", NsPerOp: 100},
		Benchmark{Name: "OnlyOld-2", NsPerOp: 50},
	)
	cur := rec(
		// A got faster at 1 proc but stopped scaling: 80 -> 75 is only
		// 1.07x. Every per-name ratio stays under the 1.3x gate (A-2 is
		// 1.25x); only the slope gate catches the lost parallelism.
		Benchmark{Name: "A", NsPerOp: 80},
		Benchmark{Name: "A-2", NsPerOp: 75},
		// B's speedup held (1.67x), times unchanged.
		Benchmark{Name: "B", NsPerOp: 100},
		Benchmark{Name: "B-2", NsPerOp: 60},
		Benchmark{Name: "OnlyNew", NsPerOp: 100},
		Benchmark{Name: "OnlyNew-2", NsPerOp: 50},
	)
	if regs, _ := diffRecordings(old, cur, 1.3); len(regs) != 0 {
		t.Fatalf("per-name diff flagged %+v, want none (times improved)", regs)
	}
	regs := diffScaling(old, cur, 1.25)
	if len(regs) != 1 {
		t.Fatalf("scaling regs = %+v, want exactly A@2procs", regs)
	}
	r := regs[0]
	if r.Name != "A@2procs" || r.Metric != "speedup" {
		t.Errorf("regression = %+v", r)
	}
	if r.Old < 1.6 || r.Old > 1.7 || r.New < 1.0 || r.New > 1.1 {
		t.Errorf("speedups = %.3g -> %.3g, want ~1.67 -> ~1.07", r.Old, r.New)
	}
	// A family that only one side measured at N procs never fires.
	if regs := diffScaling(old, rec(Benchmark{Name: "OnlyOld", NsPerOp: 100}), 1.25); len(regs) != 0 {
		t.Errorf("single-sided family fired: %+v", regs)
	}
}

func TestScalingCurves(t *testing.T) {
	curves := scalingCurves(rec(
		Benchmark{Name: "A", NsPerOp: 100},
		Benchmark{Name: "A-2", NsPerOp: 50},
		Benchmark{Name: "A-4", NsPerOp: 30},
		Benchmark{Name: "Solo", NsPerOp: 7},
	))
	a := curves["A"]
	if len(a) != 3 || a[1] != 100 || a[2] != 50 || a[4] != 30 {
		t.Errorf("curve A = %v", a)
	}
	if s := curves["Solo"]; len(s) != 1 || s[1] != 7 {
		t.Errorf("curve Solo = %v", s)
	}
}
