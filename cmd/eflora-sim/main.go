// Command eflora-sim runs the packet-level LoRaWAN simulator on a
// generated deployment under a chosen allocator and reports delivery,
// energy and lifetime statistics — the measurement side of the paper's
// evaluation pipeline.
//
// Usage:
//
//	eflora-sim -devices 1000 -gateways 3 -allocator eflora -packets 100
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/lifetime"
	"eflora/internal/model"
	"eflora/internal/radio"
	"eflora/internal/scenario"
	"eflora/internal/sim"
	"eflora/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eflora-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("eflora-sim", flag.ContinueOnError)
	var (
		devices    = fs.Int("devices", 1000, "number of end devices")
		gateways   = fs.Int("gateways", 3, "number of gateways")
		radius     = fs.Float64("radius", 5000, "deployment disc radius in meters")
		seed       = fs.Uint64("seed", 1, "random seed")
		allocator  = fs.String("allocator", "eflora", "allocator: "+strings.Join(core.AllocatorNames(), ", "))
		packets    = fs.Int("packets", 100, "packets per device")
		capture    = fs.Bool("capture", false, "enable the 6 dB co-SF capture effect")
		batteryMAH = fs.Float64("battery", 2400, "battery capacity in mAh at 3.3 V")
		inFile     = fs.String("in", "", "load a scenario file (from eflora -out) instead of generating")
		confirmed  = fs.Bool("confirmed", false, "confirmed traffic: retransmit unacknowledged packets (up to 8 attempts)")
		traceFile  = fs.String("trace", "", "write a per-packet outcome trace as CSV to this file")
		halfDuplex = fs.Bool("halfduplex", false, "with -confirmed: gateways cannot receive while transmitting ACKs")
		captureDB  = fs.Float64("capture-db", sim.DefaultCaptureThresholdDB, "with -capture: power advantage in dB needed to capture (0 = strongest wins)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A count below 1 or a non-positive radius would otherwise be
	// replaced by its default, and a non-finite value would reach the
	// model, so either would run something other than what was asked for.
	for _, f := range []struct {
		name string
		v    int
	}{{"-devices", *devices}, {"-gateways", *gateways}, {"-packets", *packets}} {
		if f.v < 1 {
			return fmt.Errorf("%s %d: want at least 1", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"-radius", *radius}, {"-battery", *batteryMAH}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v <= 0 {
			return fmt.Errorf("%s %v: want a finite value above 0", f.name, f.v)
		}
	}
	if math.IsNaN(*captureDB) || math.IsInf(*captureDB, 0) {
		return fmt.Errorf("-capture-db %v: want a finite value", *captureDB)
	}

	var (
		netw *core.Network
		a    model.Allocation
	)
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			return err
		}
		sc, err := scenario.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		p := model.DefaultParams()
		netw = &core.Network{Net: sc.Network(), Params: p, Seed: *seed}
		var ok bool
		if a, ok = sc.AllocationOf(); !ok {
			if a, err = netw.Allocate(*allocator, alloc.Options{}); err != nil {
				return err
			}
		}
	} else {
		var err error
		netw, err = core.Build(core.Scenario{
			Devices:  *devices,
			Gateways: *gateways,
			RadiusM:  *radius,
			Seed:     *seed,
		})
		if err != nil {
			return err
		}
		if a, err = netw.Allocate(*allocator, alloc.Options{}); err != nil {
			return err
		}
	}

	var res *sim.Result
	var summary string
	simCfg := sim.Config{
		PacketsPerDevice:   *packets,
		Seed:               *seed + 1,
		Capture:            *capture,
		Trace:              *traceFile != "",
		CaptureThresholdDB: captureDB,
	}
	if *confirmed {
		cres, err := sim.RunConfirmed(netw.Net, netw.Params, a, sim.ConfirmedConfig{
			Config:         simCfg,
			HalfDuplexAcks: *halfDuplex,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Confirmed traffic: %d retransmissions, %d packets abandoned after %d attempts",
			cres.Retransmissions, cres.Abandoned, sim.MaxTransmissions)
		if *halfDuplex {
			fmt.Fprintf(out, ", %d uplinks lost to ACK transmissions", cres.AckBlocked)
		}
		fmt.Fprintln(out)
		res, summary = &cres.Result, cres.Summary()
	} else {
		var err error
		if res, err = netw.Simulate(a, simCfg); err != nil {
			return err
		}
		summary = res.Summary()
	}

	fmt.Fprintf(out, "Simulated %s on %d devices / %d gateways for %.0f s (>=%d packets/device)\n\n",
		*allocator, netw.Net.N(), netw.Net.G(), res.SimTimeS, *packets)
	fmt.Fprintln(out, summary)

	prr := stats.Summarize(res.PRR)
	fmt.Fprintf(out, "\nPRR: min %.3f / mean %.3f / max %.3f\n", prr.Min, prr.Mean, prr.Max)
	ee := stats.Summarize(res.EE)
	fmt.Fprintf(out, "EE:  min %.3f / mean %.3f / max %.3f bits/mJ (Jain %.4f)\n",
		core.BitsPerMilliJoule(ee.Min), core.BitsPerMilliJoule(ee.Mean),
		core.BitsPerMilliJoule(ee.Max), stats.JainIndex(res.EE))

	if *traceFile != "" && res.Trace != nil {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		if err := sim.WriteTraceCSV(f, res.Trace); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %d packet records to %s\n", len(res.Trace), *traceFile)
	}

	batt := radio.NewBatteryFromMilliampHours(*batteryMAH, 3.3)
	lt, err := lifetime.Compute(res.RetxAvgPowerW, batt, lifetime.DefaultDeadFraction)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Lifetime (confirmed traffic, %g mAh): first death %.1f days, 10%%-dead %.1f days\n",
		*batteryMAH, lifetime.Days(lt.FirstDeathS), lifetime.Days(lt.NetworkS))
	return nil
}
