// End-to-end vertical slice: three sensors encode real LoRaWAN frames
// (AES-CMAC MIC, encrypted payload), modulate them through the chirp-level
// PHY, two gateways demodulate whatever the channel lets through at their
// respective SNRs, and the network server de-duplicates, verifies and
// decrypts the surviving copies — the full stack the EF-LoRa allocator
// sits on top of.
//
// Run with:
//
//	go run ./examples/endtoend
package main

import (
	"fmt"
	"log"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/lorawan"
	"eflora/internal/model"
	"eflora/internal/netserver"
	"eflora/internal/phy"
	"eflora/internal/rng"
)

func main() {
	env := model.LoSPathLoss(903e6, 2.7)
	gateways := []geo.Point{{X: -1200, Y: 0}, {X: 1200, Y: 0}}
	type sensor struct {
		name string
		pos  geo.Point
		sf   lora.SF
		dev  netserver.Device
	}
	sensors := []sensor{
		{"soil-a", geo.Point{X: -900, Y: 300}, lora.SF7, device(0x11)},
		{"soil-b", geo.Point{X: 400, Y: -2200}, lora.SF9, device(0x22)},
		{"tank-c", geo.Point{X: 3500, Y: 1500}, lora.SF11, device(0x33)},
	}
	var deliveries []netserver.Delivery
	server := netserver.New([]netserver.Device{sensors[0].dev, sensors[1].dev, sensors[2].dev},
		func(d netserver.Delivery) { deliveries = append(deliveries, d) })
	r := rng.New(2026)
	const tpDBm = 14.0
	noiseDBm := model.DefaultParams().NoiseDBm

	now := 0.0
	for fcnt := uint32(1); fcnt <= 3; fcnt++ {
		for _, s := range sensors {
			frame, err := lorawan.Encode(lorawan.Frame{
				MType:   lorawan.UnconfirmedDataUp,
				DevAddr: s.dev.DevAddr,
				FCnt:    fcnt,
				FPort:   1,
				Payload: []byte(fmt.Sprintf("%s#%d", s.name, fcnt)),
			}, s.dev.Keys)
			if err != nil {
				log.Fatal(err)
			}
			codec, err := phy.NewCodec(s.sf, lora.CR47)
			if err != nil {
				log.Fatal(err)
			}
			modem, err := phy.NewModem(s.sf)
			if err != nil {
				log.Fatal(err)
			}
			symbols := codec.Encode(frame)
			fmt.Printf("%s (SF%d, FCnt %d): %d-byte frame -> %d chirp symbols\n",
				s.name, int(s.sf), fcnt, len(frame), len(symbols))

			for gw, gwPos := range gateways {
				// Per-sample SNR at this gateway from path loss + fading.
				dist := s.pos.Dist(gwPos)
				snrDB := tpDBm + env.GainDB(dist) - noiseDBm +
					lora.LinearToDB(r.RayleighPowerGain())
				rx := make([]int, 0, len(symbols))
				for _, sym := range symbols {
					sig, err := modem.Modulate(sym)
					if err != nil {
						log.Fatal(err)
					}
					got, err := modem.Demodulate(phy.AWGN(sig, snrDB, r))
					if err != nil {
						log.Fatal(err)
					}
					rx = append(rx, got)
				}
				decoded, corrected, bad, err := codec.Decode(rx, len(frame))
				if err != nil || bad > 0 {
					fmt.Printf("  gw%d @ %.0fm: lost (SNR %.1f dB, %d bad codewords)\n",
						gw, dist, snrDB, bad)
					continue
				}
				fmt.Printf("  gw%d @ %.0fm: demodulated (SNR %.1f dB, %d corrected) -> forwarding\n",
					gw, dist, snrDB, corrected)
				if err := server.HandleUplink(netserver.Uplink{
					Gateway: gw, ReceivedAtS: now, SNRdB: snrDB, PHYPayload: decoded,
				}); err != nil {
					fmt.Printf("  gw%d: server rejected copy: %v\n", gw, err)
				}
			}
			now += 10
		}
	}
	server.Flush()

	fmt.Println("\nNetwork server:")
	for _, d := range deliveries {
		fmt.Printf("  dev %08x FCnt %d via %d gateway(s): %q\n",
			d.DevAddr, d.FCnt, len(d.Gateways), d.Payload)
	}
	fmt.Printf("  merged duplicates: %d, rejected: %d\n", server.Duplicates, server.Rejected)
}

// device provisions deterministic session keys.
func device(addr uint32) netserver.Device {
	var k lorawan.Keys
	for i := range k.NwkSKey {
		k.NwkSKey[i] = byte(addr) + byte(i)
		k.AppSKey[i] = byte(addr) ^ byte(i*7)
	}
	return netserver.Device{DevAddr: addr, Keys: k}
}
