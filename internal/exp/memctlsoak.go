package exp

import (
	"time"

	"polyecc/internal/health"
	"polyecc/internal/memctl"
	"polyecc/internal/scenario"
	"polyecc/internal/telemetry"
)

// memctlStrongCodec is the top of the default migration ladder: the
// 16-bit-symbol instance regions are re-encoded with when their error
// rate crosses the migration threshold.
const memctlStrongCodec = "poly-m131049"

// MemctlSoakHealth is the health engine configuration of the
// self-healing soak: 250ms decision epochs, a 4s slow window and 1s
// fast window, and SLO budgets scaled so the background error floor
// burns at ~0.5x while the storm burns two orders of magnitude hotter.
func MemctlSoakHealth() health.Config {
	return health.Config{
		BucketNs:          250 * int64(time.Millisecond),
		WindowBuckets:     16,
		FastWindowBuckets: 4,
		RegionLines:       64,
		RowLines:          scenario.StormRowLines,
		BudgetCorrected:   2,
		BudgetDUE:         0.5,
		BudgetSDC:         0.05,
		HoldDown:          2,
	}
}

// MemctlSoakConfig is the controller configuration the `faultinject
// -scenario memctlsoak` soak runs: thresholds scaled to the soak's
// 250ms decision epoch so a storm escalates within a bucket or two,
// quarantined lines release after 2s of calm, a flapping line retires
// on its third strike, and the codec ladder climbs from the driven code
// to the 16-bit-symbol instance.
func MemctlSoakConfig(codeName string, j *telemetry.Journal) memctl.Config {
	ladder := []string{codeName}
	if codeName != memctlStrongCodec {
		ladder = append(ladder, memctlStrongCodec)
	}
	return memctl.Config{
		Health:          MemctlSoakHealth(),
		Journal:         j,
		QuarantineAfter: 3,
		DUEWeight:       3,
		ReleaseCalm:     8, // 2s of calm before a release
		MaxRequarantine: 2,
		ScrubBase:       4 * time.Second,
		ScrubMin:        250 * time.Millisecond,
		MaxScrubLevel:   4,
		ScrubCalm:       4, // one relax step per 1s without a signature
		ReorderMin:      12,
		Codecs:          ladder,
		MigrateRate:     8,
		MaxActions:      4096,
	}
}
