//go:build amd64

// Pinned on amd64 only, like the run digests: other architectures may fuse
// floating-point multiply-adds and move the printed decimals.

package experiments_test

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/simkit"
)

// Policylab: compare SpotCheck's five customer-to-pool mapping policies
// (Table 2) across migration mechanisms, reproducing the trade-offs of
// Figures 10-12 and Table 3 at laptop scale: cost vs availability vs
// degradation vs storm risk.
func Example_policylab() {
	const (
		vms     = 24
		horizon = 60 * simkit.Day
		seed    = 42
	)
	// An output line cannot end in spaces, and the tables pad their last
	// column: print them trimmed.
	show := func(t fmt.Stringer) {
		for _, line := range strings.Split(strings.TrimSuffix(t.String(), "\n"), "\n") {
			fmt.Println(strings.TrimRight(line, " "))
		}
		fmt.Println()
	}

	matrix, err := experiments.PolicyMatrix(vms, horizon, seed)
	if err != nil {
		panic(err)
	}
	show(experiments.Fig10Bars(matrix))
	show(experiments.Fig11Bars(matrix))
	show(experiments.Fig12Bars(matrix))

	rows, err := experiments.Table3(vms, horizon, seed)
	if err != nil {
		panic(err)
	}
	show(experiments.Table3Render(rows, vms))

	fmt.Println("Reading the trade-off (the paper's §6.2 conclusions):")
	fmt.Println("  - every policy costs ~5x less than on-demand; live migration is cheapest")
	fmt.Println("    (no backup servers) but risks losing VM state on revocation")
	fmt.Println("  - 1P-M rides the calmest pool: best availability and least degradation,")
	fmt.Println("    but every revocation is a full-fleet storm (Table 3, column N)")
	fmt.Println("  - 4P-ED pays slightly more and degrades slightly more, but mass")
	fmt.Println("    revocations disappear: pools spike independently")
	// Output:
	// == Fig 10: average cost per VM-hour ($) ==
	//          Xen Live migration  Unoptimized Full restore  SpotCheck with Full restore  SpotCheck with Lazy restore
	// -------  ------------------  ------------------------  ---------------------------  ---------------------------
	// 1P-M     0.0104              0.0221                    0.0221                       0.0221
	// 2P-ML    0.0113              0.0230                    0.0230                       0.0230
	// 4P-ED    0.0182              0.0299                    0.0299                       0.0299
	// 4P-COST  0.0168              0.0285                    0.0285                       0.0285
	// 4P-ST    0.0190              0.0307                    0.0307                       0.0307
	//
	// == Fig 11: unavailability (%) ==
	//          Xen Live migration  Unoptimized Full restore  SpotCheck with Full restore  SpotCheck with Lazy restore
	// -------  ------------------  ------------------------  ---------------------------  ---------------------------
	// 1P-M     4.927e-06           0.0325                    0.0150                       0.0013
	// 2P-ML    1.314e-05           0.0685                    0.0311                       0.0033
	// 4P-ED    4.399e-05           0.1647                    0.0723                       0.0105
	// 4P-COST  4.078e-05           0.1613                    0.0710                       0.0101
	// 4P-ST    3.318e-05           0.1185                    0.0518                       0.0080
	//
	// == Fig 12: performance degradation (%) ==
	//          Xen Live migration  Unoptimized Full restore  SpotCheck with Full restore  SpotCheck with Lazy restore
	// -------  ------------------  ------------------------  ---------------------------  ---------------------------
	// 1P-M     0                   0                         0.0037                       0.0189
	// 2P-ML    0                   0                         0.0096                       0.0404
	// 4P-ED    0                   0                         0.0303                       0.0988
	// 4P-COST  0                   0                         0.0292                       0.0967
	// 4P-ST    0                   0                         0.0228                       0.0716
	//
	// == Table 3: probability of max concurrent revocations (N=24 VMs, per hour) ==
	// Pools   N/4     N/2     3N/4  N
	// ------  ------  ------  ----  ------
	// 1-Pool  0       0       0     0.0021
	// 2-Pool  0       0.0111  0     0
	// 4-Pool  0.0701  0       0     0
	//
	// Reading the trade-off (the paper's §6.2 conclusions):
	//   - every policy costs ~5x less than on-demand; live migration is cheapest
	//     (no backup servers) but risks losing VM state on revocation
	//   - 1P-M rides the calmest pool: best availability and least degradation,
	//     but every revocation is a full-fleet storm (Table 3, column N)
	//   - 4P-ED pays slightly more and degrades slightly more, but mass
	//     revocations disappear: pools spike independently
}
