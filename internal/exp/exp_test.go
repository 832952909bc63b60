package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// quickCfg keeps experiment tests fast while sampling enough packets for
// the min-over-devices statistics to stabilize.
func quickCfg() Config {
	return Config{Scale: 0.05, Trials: 2, PacketsPerDevice: 120, Seed: 7}
}

func TestIDsOrderedAndComplete(t *testing.T) {
	ids := IDs()
	want := []string{
		"table1", "table2", "table4",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"ablation-adr", "ablation-capture", "ablation-confirmed", "ablation-order",
	}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s (all: %v)", i, ids[i], want[i], ids)
		}
	}
	for _, id := range ids {
		if _, ok := Title(id); !ok {
			t.Errorf("Title(%s) missing", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", quickCfg()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable1ReproducesPaperExactly(t *testing.T) {
	res, err := Run("table1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table I, reproduced cell-exactly by the scenario encoding.
	checks := map[string]float64{
		"max_single_gw":            39,
		"max_two_gws,_smallest_sf": 31,
		"max_two_gws,_adjusted_sf": 26,
	}
	for key, want := range checks {
		got, ok := res.Values[key]
		if !ok {
			t.Fatalf("missing value %q in %v", key, res.Values)
		}
		if math.Abs(got-want) > 0.5 {
			t.Errorf("%s = %v, paper says %v", key, got, want)
		}
	}
	if math.Abs(res.Values["avg_single_gw"]-31.2) > 0.3 {
		t.Errorf("avg single GW = %v, paper 31.2", res.Values["avg_single_gw"])
	}
	if math.Abs(res.Values["avg_two_gws,_smallest_sf"]-25.2) > 0.5 {
		t.Errorf("avg smallest SF = %v, paper 25.2", res.Values["avg_two_gws,_smallest_sf"])
	}
	if math.Abs(res.Values["avg_two_gws,_adjusted_sf"]-23.2) > 0.5 {
		t.Errorf("avg adjusted = %v, paper 23.2", res.Values["avg_two_gws,_adjusted_sf"])
	}
}

func TestTable2ReproducesProse(t *testing.T) {
	res, err := Run("table2", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The prose: 14/26/26 ms -> 17/26/17 ms.
	if math.Abs(res.Values["max_smallest"]-26) > 0.5 {
		t.Errorf("max smallest = %v, want ~26", res.Values["max_smallest"])
	}
	if res.Values["avg_adjusted"] >= res.Values["avg_smallest"]+0.5 {
		t.Errorf("TP adjustment should not worsen the average: %v vs %v",
			res.Values["avg_adjusted"], res.Values["avg_smallest"])
	}
	if res.Values["fairness_gain"] <= 0 {
		t.Errorf("fairness gain = %v, want positive", res.Values["fairness_gain"])
	}
}

func TestTable4MatchesLoraTables(t *testing.T) {
	res, err := Run("table4", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["snr_sf12"] != -20 || res.Values["ss_sf7"] != -123 {
		t.Errorf("Table IV values wrong: %v", res.Values)
	}
	if !strings.Contains(res.Text, "-134.5") {
		t.Errorf("rendered table missing SF11 sensitivity:\n%s", res.Text)
	}
}

func TestFig4Shape(t *testing.T) {
	res, err := Run("fig4", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// EF-LoRa wins the max-min objective against both baselines and is
	// clearly fairer than RS-LoRa (which forces a share of devices onto
	// large SFs). Against legacy the Jain index can nearly tie at test
	// scale, so allow a hair of slack there.
	if res.Values["eflora_3gw_min"] <= res.Values["legacy_3gw_min"] {
		t.Errorf("EF-LoRa min EE %v should beat legacy %v",
			res.Values["eflora_3gw_min"], res.Values["legacy_3gw_min"])
	}
	if res.Values["eflora_3gw_min"] <= res.Values["rslora_3gw_min"] {
		t.Errorf("EF-LoRa min EE %v should beat RS-LoRa %v",
			res.Values["eflora_3gw_min"], res.Values["rslora_3gw_min"])
	}
	if res.Values["eflora_3gw_jain"] <= res.Values["rslora_3gw_jain"] {
		t.Errorf("EF-LoRa Jain %v should beat RS-LoRa %v",
			res.Values["eflora_3gw_jain"], res.Values["rslora_3gw_jain"])
	}
	if res.Values["eflora_3gw_jain"] < res.Values["legacy_3gw_jain"]-0.02 {
		t.Errorf("EF-LoRa Jain %v should not trail legacy %v materially",
			res.Values["eflora_3gw_jain"], res.Values["legacy_3gw_jain"])
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Run("fig5", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Max-min fairness shows in the CDF's low tail: EF-LoRa's worst-5%
	// devices do clearly better than RS-LoRa's (which forces some devices
	// onto large SFs) and at least as well as legacy's.
	if res.Values["eflora_3gw_p05"] <= res.Values["rslora_3gw_p05"] {
		t.Errorf("EF-LoRa P5 %v should beat RS-LoRa %v",
			res.Values["eflora_3gw_p05"], res.Values["rslora_3gw_p05"])
	}
	if res.Values["eflora_3gw_p05"] < 0.95*res.Values["legacy_3gw_p05"] {
		t.Errorf("EF-LoRa P5 %v should not trail legacy %v",
			res.Values["eflora_3gw_p05"], res.Values["legacy_3gw_p05"])
	}
	if !strings.Contains(res.Text, "CDF") {
		t.Error("missing CDF chart")
	}
}

func TestFig6Shape(t *testing.T) {
	cfg := Config{Scale: 0.03, Trials: 1, PacketsPerDevice: 60, Seed: 7}
	res, err := Run("fig6", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"legacy", "rslora", "eflora"} {
		for _, n := range []int{500, 1000, 2000, 3000, 4000, 5000} {
			key := m + "_n" + itoa(n)
			v, ok := res.Values[key]
			if !ok || v < 0 {
				t.Errorf("missing or negative %s = %v", key, v)
			}
		}
	}
	// Denser networks cannot be better for the worst device (allow a
	// little simulation noise).
	if res.Values["eflora_n5000"] > res.Values["eflora_n500"]*1.15 {
		t.Errorf("min EE should fall with density: n500=%v n5000=%v",
			res.Values["eflora_n500"], res.Values["eflora_n5000"])
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := Config{Scale: 0.03, Trials: 1, PacketsPerDevice: 60, Seed: 7}
	res, err := Run("fig7", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// More gateways help the worst device in the sparse regime.
	if res.Values["eflora_g5"] <= res.Values["eflora_g1"] {
		t.Errorf("5 gateways (%v) should beat 1 gateway (%v)",
			res.Values["eflora_g5"], res.Values["eflora_g1"])
	}
	for _, g := range []int{1, 3, 5, 9, 15, 20, 25} {
		if _, ok := res.Values["eflora_g"+itoa(g)]; !ok {
			t.Errorf("missing gateway point %d", g)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	cfg := Config{Scale: 0.03, Trials: 1, PacketsPerDevice: 60, Seed: 7}
	res, err := Run("fig8", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every lifetime is positive and finite.
	for k, v := range res.Values {
		if strings.HasSuffix(k, "_days") && (v <= 0 || math.IsInf(v, 0) || math.IsNaN(v)) {
			t.Errorf("%s = %v", k, v)
		}
	}
	// EF-LoRa clearly extends lifetime versus RS-LoRa (paper: +15.3%).
	// Versus legacy the paper's +41.5% needs full-scale collision load
	// (the bottleneck device's ETX); at test scale the two bottlenecks
	// tie, so require non-inferiority only.
	if res.Values["gain_vs_rslora"] <= 0 {
		t.Errorf("EF-LoRa lifetime gain vs RS-LoRa = %v, want positive", res.Values["gain_vs_rslora"])
	}
	if res.Values["gain_vs_legacy"] < -0.05 {
		t.Errorf("EF-LoRa lifetime gain vs legacy = %v, want >= -5%%", res.Values["gain_vs_legacy"])
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// TestFigureLabelsShowScaledCount runs Figs. 6 and 8 at a scale that
// floors every data point at 10 devices: each row must show the count it
// ran next to the paper's, and the chart title the scale as given.
func TestFigureLabelsShowScaledCount(t *testing.T) {
	cfg := Config{Scale: 0.0001, Trials: 1, PacketsPerDevice: 5, Seed: 7}
	fig6, err := Run("fig6", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{500, 1000, 2000, 3000, 4000, 5000} {
		if want := fmt.Sprintf("\n%d (10 scaled) ", n); !strings.Contains(fig6.Text, want) {
			t.Errorf("fig6 has no row %q:\n%s", strings.TrimSpace(want), fig6.Text)
		}
	}
	if !strings.Contains(fig6.Text, "scale 0.0001)") {
		t.Errorf("fig6 chart title does not print scale 0.0001:\n%s", fig6.Text)
	}
	fig8, err := Run("fig8", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"3GW/5000ED", "3GW/3000ED", "3GW/1000ED", "5GW/1000ED", "9GW/1000ED"} {
		if want := "\n" + d + " (10 scaled) "; !strings.Contains(fig8.Text, want) {
			t.Errorf("fig8 has no row %q:\n%s", strings.TrimSpace(want), fig8.Text)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := Run("fig9", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// EF-LoRa at the default beta should beat legacy LoRa.
	if res.Values["eflora_beta2.7"] <= res.Values["legacy"] {
		t.Errorf("EF-LoRa %v should beat legacy %v", res.Values["eflora_beta2.7"], res.Values["legacy"])
	}
	// Fixed-TP EF-LoRa still at least matches legacy (paper: +71% at
	// full scale; at test scale contention is light and the two can tie).
	if res.Values["eflora_fixed_tp"] < 0.999*res.Values["legacy"] {
		t.Errorf("fixed-TP EF-LoRa %v should not lose to legacy %v", res.Values["eflora_fixed_tp"], res.Values["legacy"])
	}
}

func TestAblationADRShape(t *testing.T) {
	cfg := Config{Scale: 0.04, Trials: 1, PacketsPerDevice: 25, Seed: 7}
	res, err := Run("ablation-adr", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The loop must improve on the join state and EF-LoRa must beat the
	// converged ADR under the model.
	if res.Values["final_minEE"] <= res.Values["epoch0_minEE"] {
		t.Errorf("ADR loop did not improve min EE: %v -> %v",
			res.Values["epoch0_minEE"], res.Values["final_minEE"])
	}
	if res.Values["eflora_model_minEE"] <= res.Values["adr_model_minEE"] {
		t.Errorf("EF-LoRa %v should beat converged ADR %v",
			res.Values["eflora_model_minEE"], res.Values["adr_model_minEE"])
	}
}

func TestAblationOrderShape(t *testing.T) {
	cfg := Config{Scale: 0.05, Trials: 1, PacketsPerDevice: 20, Seed: 7}
	res, err := Run("ablation-order", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["density_s"] <= 0 || res.Values["random_s"] <= 0 {
		t.Errorf("timings missing: %v", res.Values)
	}
	if res.Values["density_minEE"] <= 0 || res.Values["random_minEE"] <= 0 {
		t.Errorf("min EE missing: %v", res.Values)
	}
}

func TestAblationCaptureShape(t *testing.T) {
	cfg := Config{Scale: 0.05, Trials: 1, PacketsPerDevice: 60, Seed: 7}
	res, err := Run("ablation-capture", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Capture can only help reception.
	if res.Values["capture_meanPRR"] < res.Values["paper_meanPRR"]-0.01 {
		t.Errorf("capture mean PRR %v below destroy-both %v",
			res.Values["capture_meanPRR"], res.Values["paper_meanPRR"])
	}
}

func TestAblationConfirmedShape(t *testing.T) {
	cfg := Config{Scale: 0.04, Trials: 1, PacketsPerDevice: 30, Seed: 7}
	res, err := Run("ablation-confirmed", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["approx_days"] <= 0 || res.Values["confirmed_days"] <= 0 {
		t.Errorf("missing lifetimes: %v", res.Values)
	}
	// Load feedback cannot extend life materially beyond the
	// approximation.
	if res.Values["confirmed_days"] > res.Values["approx_days"]*1.3 {
		t.Errorf("confirmed lifetime %v suspiciously above approximation %v",
			res.Values["confirmed_days"], res.Values["approx_days"])
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := Run("fig10", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Convergence time grows with problem size: largest config slower
	// than smallest.
	small := res.Values["t_n1000_g3"]
	large := res.Values["t_n3000_g9"]
	if small <= 0 || large <= 0 {
		t.Fatalf("timings missing: %v", res.Values)
	}
	if large < small {
		t.Errorf("larger problem faster than smaller: %v < %v", large, small)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.1 || c.Trials != 3 || c.PacketsPerDevice != 40 {
		t.Errorf("defaults = %+v", c)
	}
	if got := c.scaled(3000); got != 300 {
		t.Errorf("scaled(3000) = %d", got)
	}
	if got := c.scaled(10); got != 10 {
		t.Errorf("scaled floor = %d, want 10", got)
	}
}
