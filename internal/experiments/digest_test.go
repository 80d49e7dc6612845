package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudchaos"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/simkit"
)

// runDigest hashes everything a run reports: the controller report, the
// whole metrics snapshot (every counter, gauge and histogram bucket of the
// controller, the platform and the chaos wrapper) and the per-VM downtimes.
// %+v prints floats in their shortest round-trip form, so one moved ulp or
// one moved counter changes the digest.
func runDigest(t *testing.T, cfg PolicyRunConfig) string {
	t.Helper()
	cfg.CollectVMDowntimes = true
	res, err := RunPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%+v\n%v\n", res.Report, *res.Snapshot, res.VMDowntimes)
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunDigestTable is the differential a refactor of the controller or
// the platform has to hold: small runs across the policy, mechanism,
// bidding, destination, billing, chaos, catalog and shard axes, each pinned
// to the digest of its full outcome. The rendered-figure golden digest
// (TestPolicyMatrixGoldenDigest) rounds to printed precision and reads four
// report fields; this one would see a moved counter, a reordered histogram
// observation or a bill off by an ulp. The constants were captured on
// linux/amd64 at the commit before the per-(type, zone) market table
// replaced the controller's and the platform's keyed maps; an intentional
// behaviour change re-pins the rows it moves and says why.
//
// Amd64-only for the reason TestPolicyMatrixGoldenDigest gives.
func TestRunDigestTable(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64, running on %s", runtime.GOARCH)
	}
	base := func(policy int, mech migration.Mechanism) PolicyRunConfig {
		return PolicyRunConfig{
			Policy:    NamedPolicyFactories()[policy],
			Mechanism: mech,
			VMs:       8,
			Horizon:   20 * simkit.Day,
			Seed:      42,
		}
	}
	// chaotic adds a flaky control plane and a staggered arrival curve (the
	// scenario campaigns' shape) to a run.
	chaotic := func(cfg PolicyRunConfig) PolicyRunConfig {
		cfg.Chaos = &cloudchaos.Config{FailProb: 0.2, ExtraLatency: 5 * simkit.Minute, Seed: 7}
		cfg.ArrivalOffsets = make([]simkit.Time, cfg.VMs)
		for i := range cfg.ArrivalOffsets {
			cfg.ArrivalOffsets[i] = simkit.Time(i/2) * 7 * simkit.Hour
		}
		return cfg
	}
	with := func(cfg PolicyRunConfig, edit func(*PolicyRunConfig)) PolicyRunConfig {
		edit(&cfg)
		return cfg
	}
	catalogRun := func() PolicyRunConfig {
		cat, err := cloud.GenerateCatalog(cloud.DefaultCatalogSpec())
		if err != nil {
			t.Fatal(err)
		}
		traces, err := CatalogTraces(cat, 20*simkit.Day, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base(0, migration.SpotCheckLazy)
		cfg.Policy = PolicyFactory{Name: "cheapest-compatible", New: func() core.PlacementPolicy {
			return core.NewCheapestCompatiblePolicy(nil)
		}}
		cfg.Traces, cfg.Catalog, cfg.Zones = traces, cat.Types, cat.Zones
		cfg.NetworkAwareSlicing = true
		return cfg
	}
	lazy := migration.SpotCheckLazy
	cases := []struct {
		name   string
		cfg    PolicyRunConfig
		golden string
	}{
		{"1P-M", base(0, lazy), "d6c94cf640c36192a43fb5ed6b1e0787997c2f132e665df98f6c115718c99d36"},
		{"2P-ML", base(1, migration.SpotCheckFull), "c6f564017113f5e6ca4bc3e81c626c41be97d62d2522d7247a7ef053d5765d47"},
		{"4P-ED", base(2, lazy), "2b7ba5326e25dd17db93ab66c60aa954c9c2001b916adc128fce5d8b39ce36d6"},
		{"4P-COST", base(3, migration.UnoptimizedFull), "ce66f3b160fb74fd0028528bd80190b8288c0ffd4ee78aafaef487b847737c54"},
		{"4P-ST", base(4, migration.XenLive), "29557c0f6ae6d38b40c0950c274d102c7b18ea18d6462ad2c889c5c23791f588"},
		{"1P-M/chaos", chaotic(base(0, lazy)), "0dff3101d9e622bbc186695ab5402a4e3ec07f18d4afa7f791c2e7c0d80aa410"},
		{"2P-ML/chaos", chaotic(base(1, migration.SpotCheckFull)), "9434ccab9e2d8cff200576022f3167b1d957bb09a7cea2990cdb75ac6edaca08"},
		{"4P-ED/chaos", chaotic(base(2, lazy)), "8aa75a2d031572dba144df3069529adc8f10f52d2b22926bec35916b5205fc17"},
		{"4P-COST/chaos", chaotic(base(3, migration.UnoptimizedFull)), "9de22555800283c0f0de2c056fc6a4f2bda51d2c6f8ef09f9da6afb49347b3ff"},
		{"4P-ST/chaos", chaotic(base(4, migration.XenLive)), "a540b90e93c68d9b346eeebf8fde6875654753f66f29ace9301fc7c699935cfc"},
		{"predictive", with(base(2, lazy), func(c *PolicyRunConfig) {
			c.Predictive = core.PredictiveConfig{Enabled: true}
		}), "fb169db5ef91985fd67c312b44d4fa2fecfba7f3b08a1303506ccdff637927d8"},
		{"bid-2x", with(base(2, lazy), func(c *PolicyRunConfig) {
			c.Bidding = core.MultipleBid{K: 2}
		}), "cd1bbc06dc56950ee08657836c11e6802074de7ea75eec16c2d21c034f186f30"},
		{"hot-spare-45s", with(base(2, lazy), func(c *PolicyRunConfig) {
			c.Destination, c.HotSpares, c.WarningWindow = core.DestHotSpare, 2, 45*simkit.Second
		}), "7cb9a95796a2bdf1b7b06a659fe15d507b4d6a5f0385dac5d00f6478ac934849"},
		{"staging-45s", with(base(2, lazy), func(c *PolicyRunConfig) {
			c.Destination, c.WarningWindow = core.DestStaging, 45*simkit.Second
		}), "23dab918efc68e1943dafa9ed60289b7bcfdb0b12c18a5d8afb23917f82dd044"},
		{"stateless", with(base(2, lazy), func(c *PolicyRunConfig) { c.Stateless = true }), "3dd13fe9d84a03ecb09edbd73925db079772b78a537bd56e6663859d0103dde4"},
		{"hourly-billing", with(base(2, lazy), func(c *PolicyRunConfig) {
			c.BillingIncrement = simkit.Hour
		}), "cb509b6e5a921c3686ac45c3912212cb79027083f8495bb116e9f7ec4da32b42"},
		{"catalog-54", catalogRun(), "f1707f24e513f3117a33abb8530fdc66dc427565f07b7d0174a045233f6fefb3"},
		{"4P-ED/shards-2", with(base(2, lazy), func(c *PolicyRunConfig) { c.Shards = 2 }), "c58ab9f62b93d7ec563b4710df370e34274329232d141902cef9c32bc29b69a0"},
		{"4P-COST/chaos/shards-2", with(chaotic(base(3, migration.UnoptimizedFull)), func(c *PolicyRunConfig) {
			c.Shards = 2
		}), "5fbb326a6d4f2db9b6d97de0491e9b420e25d511e279171d313a950a4f3b00e5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := runDigest(t, tc.cfg); got != tc.golden {
				t.Errorf("run digest drifted:\n got %s\nwant %s", got, tc.golden)
			}
		})
	}
}
