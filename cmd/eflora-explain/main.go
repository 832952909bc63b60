// Command eflora-explain loads a scenario file (from eflora -out) and
// prints the analytical model's per-device breakdown — fade margins,
// gateway-capacity factors and collision exposure — for the requested
// devices, or for the network's bottleneck when none are given.
//
// Usage:
//
//	eflora -devices 500 -gateways 3 -out net.json
//	eflora-explain -in net.json            # explain the bottleneck device
//	eflora-explain -in net.json -device 17 -device 42
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"eflora/internal/core"
	"eflora/internal/model"
	"eflora/internal/scenario"
)

// intList collects repeated -device flags.
type intList []int

func (l *intList) String() string { return fmt.Sprint([]int(*l)) }
func (l *intList) Set(s string) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eflora-explain:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("eflora-explain", flag.ContinueOnError)
	var devices intList
	inFile := fs.String("in", "", "scenario file with an allocation (required)")
	fs.Var(&devices, "device", "device index to explain (repeatable; default: the bottleneck)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inFile == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(*inFile)
	if err != nil {
		return err
	}
	sc, err := scenario.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	a, ok := sc.AllocationOf()
	if !ok {
		return fmt.Errorf("scenario %s has no allocation; run eflora -out first", *inFile)
	}
	net := sc.Network()
	p := model.DefaultParams()
	ev, err := model.NewEvaluator(net, p, a, model.ModeExact)
	if err != nil {
		return err
	}
	min, bottleneck := ev.MinEE()
	fmt.Fprintf(out, "%d devices, %d gateways; network min EE %.3f bits/mJ at device %d\n\n",
		net.N(), net.G(), core.BitsPerMilliJoule(min), bottleneck)
	if len(devices) == 0 {
		devices = intList{bottleneck}
	}
	for _, d := range devices {
		if d < 0 || d >= net.N() {
			return fmt.Errorf("device %d out of range [0, %d)", d, net.N())
		}
		fmt.Fprintln(out, ev.Explain(d).String())
	}
	return nil
}
