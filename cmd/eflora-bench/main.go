// Command eflora-bench records and compares benchmark runs.
//
// Record mode (the default) shells out to `go test -bench`, parses the
// standard benchmark output and writes a JSON recording in the same schema
// as BENCH_sim.json:
//
//	eflora-bench -bench 'Sequential|Parallel' -benchtime 3x -o BENCH_sim.json
//
// The -cpu flag is passed through to `go test -cpu`, so one recording can
// hold a per-core scaling curve: go test runs every benchmark once per
// GOMAXPROCS value and suffixes the name with -N (no suffix at 1 proc),
// which the schema stores as separate benchmark entries:
//
//	eflora-bench -bench 'Sequential|Parallel' -cpu 1,2,4 -o BENCH_sim.json
//
// Diff mode compares two recordings benchmark-by-benchmark and exits
// non-zero when any shared benchmark regressed beyond the threshold ratio
// on time, bytes or allocations:
//
//	eflora-bench -diff -threshold 1.3 old.json BENCH_sim.json
//
// When both recordings carry multi-proc entries for a benchmark family,
// diff mode also compares the parallel speedup (1-proc ns/op over N-proc
// ns/op) at every shared N and fails when the new speedup falls below the
// old by more than -scaling-threshold — a kernel that still hits its
// single-core number but stopped scaling across cores is a regression the
// per-name ratios alone cannot see.
//
// The parser and differ are plain functions over readers and structs so
// they are unit-testable without running the suite.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Recording mirrors the schema of BENCH_sim.json.
type Recording struct {
	Description string      `json:"description"`
	Date        string      `json:"date"`
	Host        Host        `json:"host"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

// Host identifies the recording machine.
type Host struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu"`
	CPUs   int    `json:"cpus"`
}

// Benchmark is one `go test -bench -benchmem` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// parseBenchOutput extracts benchmark result lines and host metadata from
// standard `go test -bench` output. Benchmark names have their trailing
// -N GOMAXPROCS suffix kept as printed (the suite pins names without it on
// single-proc runs); unparseable lines are skipped.
func parseBenchOutput(r io.Reader) ([]Benchmark, Host, error) {
	host := Host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.GOMAXPROCS(0)}
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cpu:"):
			host.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "goos:"):
			host.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			host.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Iterations: iters}
		// The remainder is value/unit pairs: `12345 ns/op 67 B/op ...`.
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp, ok = v, true
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		if ok {
			out = append(out, b)
		}
	}
	return out, host, sc.Err()
}

// splitProcs separates a recorded benchmark name into its family and the
// GOMAXPROCS the run used: go test suffixes -N under -cpu and for any
// parallel run, and omits the suffix at 1 proc.
func splitProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}

// scalingCurves groups a recording's benchmarks into per-family curves of
// ns/op keyed by GOMAXPROCS. Families with a single point still appear
// (the differ skips them).
func scalingCurves(r Recording) map[string]map[int]float64 {
	out := map[string]map[int]float64{}
	for _, b := range r.Benchmarks {
		base, procs := splitProcs(b.Name)
		if out[base] == nil {
			out[base] = map[int]float64{}
		}
		out[base][procs] = b.NsPerOp
	}
	return out
}

// diffScaling compares the parallel speedup curves of the families both
// recordings measured at 1 proc and at N>1 procs, and reports a
// regression wherever oldSpeedup/newSpeedup exceeds threshold. Speedup is
// ns/op at 1 proc over ns/op at N procs, so a slope regression is caught
// even when every absolute time improved.
func diffScaling(old, new Recording, threshold float64) []regression {
	oldCurves := scalingCurves(old)
	var regs []regression
	for base, cur := range scalingCurves(new) {
		prev := oldCurves[base]
		if prev == nil || prev[1] == 0 || cur[1] == 0 {
			continue
		}
		for procs, ns := range cur {
			if procs == 1 || ns == 0 || prev[procs] == 0 {
				continue
			}
			oldUp := prev[1] / prev[procs]
			newUp := cur[1] / ns
			if ratio := oldUp / newUp; ratio > threshold {
				regs = append(regs, regression{
					Name:   fmt.Sprintf("%s@%dprocs", base, procs),
					Metric: "speedup",
					Old:    oldUp,
					New:    newUp,
					Ratio:  ratio,
				})
			}
		}
	}
	sortRegressions(regs)
	return regs
}

// sortRegressions orders reports by name then metric for stable output
// (scaling curves come out of map iteration).
func sortRegressions(regs []regression) {
	for i := 1; i < len(regs); i++ {
		for j := i; j > 0 && (regs[j].Name < regs[j-1].Name ||
			(regs[j].Name == regs[j-1].Name && regs[j].Metric < regs[j-1].Metric)); j-- {
			regs[j], regs[j-1] = regs[j-1], regs[j]
		}
	}
}

// regression describes one metric of one benchmark exceeding the
// threshold ratio.
type regression struct {
	Name   string
	Metric string
	Old    float64
	New    float64
	Ratio  float64
}

func (r regression) String() string {
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%.2fx, threshold exceeded)",
		r.Name, r.Metric, r.Old, r.New, r.Ratio)
}

// diffRecordings compares the benchmarks shared by two recordings and
// returns the metrics whose new/old ratio exceeds threshold. Benchmarks
// present in only one recording are listed in the second return value and
// never count as regressions. A zero old value with a non-zero new value
// is treated as an infinite ratio.
func diffRecordings(old, new Recording, threshold float64) ([]regression, []string) {
	oldBy := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	var regs []regression
	var unmatched []string
	seen := make(map[string]bool, len(new.Benchmarks))
	for _, nb := range new.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			unmatched = append(unmatched, nb.Name)
			continue
		}
		seen[nb.Name] = true
		for _, m := range []struct {
			metric string
			ov, nv float64
		}{
			{"ns/op", ob.NsPerOp, nb.NsPerOp},
			{"B/op", ob.BytesPerOp, nb.BytesPerOp},
			{"allocs/op", ob.AllocsPerOp, nb.AllocsPerOp},
		} {
			var ratio float64
			switch {
			case m.ov > 0:
				ratio = m.nv / m.ov
			case m.nv > 0:
				ratio = threshold + 1 // 0 -> nonzero: always a regression
			default:
				continue
			}
			if ratio > threshold {
				regs = append(regs, regression{nb.Name, m.metric, m.ov, m.nv, ratio})
			}
		}
	}
	for _, b := range old.Benchmarks {
		if !seen[b.Name] {
			unmatched = append(unmatched, b.Name)
		}
	}
	return regs, unmatched
}

func readRecording(path string) (Recording, error) {
	var rec Recording
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// writeRecording marshals the recording with one benchmark per line,
// matching the hand-formatted style of BENCH_sim.json closely enough
// to diff comfortably.
func writeRecording(w io.Writer, rec Recording) error {
	head, err := json.Marshal(struct {
		Description string `json:"description"`
		Date        string `json:"date"`
		Host        Host   `json:"host"`
	}{rec.Description, rec.Date, rec.Host})
	if err != nil {
		return err
	}
	var b strings.Builder
	var pretty map[string]json.RawMessage
	if err := json.Unmarshal(head, &pretty); err != nil {
		return err
	}
	b.WriteString("{\n")
	fmt.Fprintf(&b, "  \"description\": %s,\n", pretty["description"])
	fmt.Fprintf(&b, "  \"date\": %s,\n", pretty["date"])
	hostJSON, err := json.MarshalIndent(rec.Host, "  ", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "  \"host\": %s,\n", hostJSON)
	b.WriteString("  \"benchmarks\": [\n")
	for i, bm := range rec.Benchmarks {
		line, err := json.Marshal(bm)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(rec.Benchmarks)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %s%s\n", line, sep)
	}
	b.WriteString("  ]\n}\n")
	_, err = io.WriteString(w, b.String())
	return err
}

func runRecord(benchRe, benchtime, timeout, pkg, outPath, desc, cpu string) error {
	args := []string{"test", "-run", "^$", "-bench", benchRe,
		"-benchtime", benchtime, "-timeout", timeout, "-benchmem", "-count=1"}
	if cpu != "" {
		args = append(args, "-cpu", cpu)
	}
	args = append(args, pkg)
	fmt.Fprintf(os.Stderr, "eflora-bench: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		os.Stderr.Write(out)
		return fmt.Errorf("go test -bench: %w", err)
	}
	benches, host, err := parseBenchOutput(strings.NewReader(string(out)))
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		os.Stderr.Write(out)
		return fmt.Errorf("no benchmark results matched %q", benchRe)
	}
	rec := Recording{
		Description: desc,
		Date:        time.Now().UTC().Format("2006-01-02"),
		Host:        host,
		Benchmarks:  benches,
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := writeRecording(f, rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d benchmarks to %s\n", len(benches), outPath)
	return nil
}

func runDiff(oldPath, newPath string, threshold, scalingThreshold float64) error {
	old, err := readRecording(oldPath)
	if err != nil {
		return err
	}
	cur, err := readRecording(newPath)
	if err != nil {
		return err
	}
	regs, unmatched := diffRecordings(old, cur, threshold)
	if scalingThreshold > 0 {
		regs = append(regs, diffScaling(old, cur, scalingThreshold)...)
	}
	for _, n := range unmatched {
		fmt.Printf("only in one recording: %s\n", n)
	}
	oldBy := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	for _, nb := range cur.Benchmarks {
		if ob, ok := oldBy[nb.Name]; ok && ob.NsPerOp > 0 {
			fmt.Printf("%s: %.2fx time, %.2fx bytes, %.2fx allocs\n", nb.Name,
				nb.NsPerOp/ob.NsPerOp, ratioOf(nb.BytesPerOp, ob.BytesPerOp), ratioOf(nb.AllocsPerOp, ob.AllocsPerOp))
		}
	}
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "REGRESSION "+r.String())
		}
		return fmt.Errorf("%d regressions above %.2fx", len(regs), threshold)
	}
	fmt.Printf("no regressions above %.2fx\n", threshold)
	return nil
}

func ratioOf(n, o float64) float64 {
	if o == 0 {
		if n == 0 {
			return 1
		}
		return 0
	}
	return n / o
}

func main() {
	var (
		diff      = flag.Bool("diff", false, "compare two recordings instead of running the suite")
		threshold = flag.Float64("threshold", 1.30, "diff mode: failure ratio for new/old on any metric")
		benchRe   = flag.String("bench", "Sequential|Parallel", "record mode: -bench regexp passed to go test")
		benchtime = flag.String("benchtime", "3x", "record mode: -benchtime passed to go test")
		timeout   = flag.String("timeout", "60m", "record mode: -timeout passed to go test (heavy suites exceed go's 10m default)")
		pkg       = flag.String("pkg", ".", "record mode: package to benchmark")
		outPath   = flag.String("o", "BENCH_sim.json", "record mode: output recording path")
		desc      = flag.String("description", "", "record mode: recording description")
		cpu       = flag.String("cpu", "", "record mode: -cpu list passed to go test (e.g. 1,2,4) to record per-core scaling curves")
		scaling   = flag.Float64("scaling-threshold", 1.25, "diff mode: failure ratio for old/new parallel speedup at each proc count (0 disables)")
	)
	flag.Parse()
	var err error
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: eflora-bench -diff [-threshold R] [-scaling-threshold R] old.json new.json")
			os.Exit(2)
		}
		err = runDiff(flag.Arg(0), flag.Arg(1), *threshold, *scaling)
	} else {
		err = runRecord(*benchRe, *benchtime, *timeout, *pkg, *outPath, *desc, *cpu)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "eflora-bench:", err)
		os.Exit(1)
	}
}
