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
// replaced the controller's and the platform's keyed maps. Fourteen were
// re-captured when the fleet state layout became the only one (PR 21):
// continuous spot bills now read the prefix integral, F(end) - F(launched),
// instead of summing price segments in order, and in each of those rows
// exactly one rendered value moved —
// spotcheck_cloudsim_billing_finalized_usd_total{market="spot"}, by 1 to 7
// ulps (CHANGES.md lists old and new). 1P-M, 1P-M/chaos, 2P-ML/chaos, 4P-ED
// and hourly-billing finalize no continuous spot bill that rounds
// differently and kept their constants. An intentional behaviour change
// re-pins the rows it moves and says why.
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
		{"2P-ML", base(1, migration.SpotCheckFull), "2195a8f459b744aa2deb75ef194ebd3e14c97253c968207ad6d3c6f1adf72fe8"},
		{"4P-ED", base(2, lazy), "2b7ba5326e25dd17db93ab66c60aa954c9c2001b916adc128fce5d8b39ce36d6"},
		{"4P-COST", base(3, migration.UnoptimizedFull), "373e7de8e7becf4ea5227ba5e9e78af54d72ae18e4340239e77596f4a5ed992e"},
		{"4P-ST", base(4, migration.XenLive), "c1d8b1c3c6722c28023057ce625de177d3ffa392ebe7a470acf7596c1942d66f"},
		{"1P-M/chaos", chaotic(base(0, lazy)), "0dff3101d9e622bbc186695ab5402a4e3ec07f18d4afa7f791c2e7c0d80aa410"},
		{"2P-ML/chaos", chaotic(base(1, migration.SpotCheckFull)), "9434ccab9e2d8cff200576022f3167b1d957bb09a7cea2990cdb75ac6edaca08"},
		{"4P-ED/chaos", chaotic(base(2, lazy)), "f04c905f0660980b0249e8853fc4ced46e73abeb39ba95dc678608bac7d67fe3"},
		{"4P-COST/chaos", chaotic(base(3, migration.UnoptimizedFull)), "a520c9f5a76a5b993e933db0855efd2c94e059fc0c92176ca57b861aec12b1ba"},
		{"4P-ST/chaos", chaotic(base(4, migration.XenLive)), "f63329e112179c15566c60a00f616b78121c6b7da35027722fe25f0b60e0359e"},
		{"predictive", with(base(2, lazy), func(c *PolicyRunConfig) {
			c.Predictive = true
		}), "e2a2d29b93078f65d8cd7331a860e5d8e3e7d77298aac2316e298c16ee223241"},
		{"bid-2x", with(base(2, lazy), func(c *PolicyRunConfig) {
			c.Bidding = core.MultipleBid{K: 2}
		}), "db50c783fd91f395ef11e59d7205be945a540ef62ce88d6490bdea08b6803a40"},
		{"hot-spare-45s", with(base(2, lazy), func(c *PolicyRunConfig) {
			c.Destination, c.HotSpares, c.WarningWindow = core.DestHotSpare, 2, 45*simkit.Second
		}), "7c14ad5db37f05c441bb6be8a7daae3c54daafb5f1f4750d9fc1ec49d5f90346"},
		{"staging-45s", with(base(2, lazy), func(c *PolicyRunConfig) {
			c.Destination, c.WarningWindow = core.DestStaging, 45*simkit.Second
		}), "7521f095406dc9fb1a17b57ad9c370b2b75c83da5e0a4798e25fe98b623adda8"},
		{"stateless", with(base(2, lazy), func(c *PolicyRunConfig) { c.Stateless = true }), "7f9d931b06bb5ba2ebdeed648782520534252426559ca91fb4983b2ddd4be17e"},
		{"hourly-billing", with(base(2, lazy), func(c *PolicyRunConfig) {
			c.BillingIncrement = simkit.Hour
		}), "cb509b6e5a921c3686ac45c3912212cb79027083f8495bb116e9f7ec4da32b42"},
		{"catalog-54", catalogRun(), "10fed82ecc7fb1aeae5023d0ce48f5281ee23ea21946680499c1c0ede575d278"},
		{"4P-ED/shards-2", with(base(2, lazy), func(c *PolicyRunConfig) { c.Shards = 2 }), "c207430377905eeeb0179f82d8c9305b76c18bac914ef1f9e8e4932277fa06fb"},
		{"4P-COST/chaos/shards-2", with(chaotic(base(3, migration.UnoptimizedFull)), func(c *PolicyRunConfig) {
			c.Shards = 2
		}), "988d9c110089349bcf0ef2f27ca016068868c4eed5e4cd06ade0d3c9b4c537fc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := runDigest(t, tc.cfg); got != tc.golden {
				t.Errorf("run digest drifted:\n got %s\nwant %s", got, tc.golden)
			}
		})
	}
}
