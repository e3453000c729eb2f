package core_test

import (
	"testing"
	"time"

	"mlpeering/internal/churn"
	"mlpeering/internal/core"
	"mlpeering/internal/experiments"
	"mlpeering/internal/topology"
)

// assertChurnMatchesOracle replays one full churn trace through the
// windowed miner twice — sequentially with the re-mine oracle attached,
// and plainly with 4 workers — and requires byte-identical
// per-window meshes plus identical counters and stability: the
// end-to-end form of the miner's byte-identity contract, over both the
// oracle and the worker-count axes.
func assertChurnMatchesOracle(t *testing.T, seed int64, cfg topology.Config) {
	t.Helper()
	ccfg := churn.DefaultConfig(seed)
	ccfg.Epochs = 3
	ccfg.Interval = 10 * time.Minute
	ct, err := experiments.BuildChurnTrace(cfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}

	seq, oracle, err := core.RemineWindows(ct.Dumps, ct.Updates, ct.Dict, core.WindowOptions{
		Start: ct.Start, Window: ct.Interval, Count: ct.Epochs, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	core.AssertWindowsMatch(t, "sequential vs oracle", seq, oracle)

	par, err := ct.Windows(4)
	if err != nil {
		t.Fatal(err)
	}
	core.AssertWindowsMatch(t, "workers=4 vs sequential", par, seq)
}

// TestChurnMatchesOracleTestScale pins the incremental miner to the
// re-mine oracle over the full churn pipeline at test scale.
func TestChurnMatchesOracleTestScale(t *testing.T) {
	assertChurnMatchesOracle(t, 7, topology.TestConfig())
}

// TestChurnMatchesOracleScale10 repeats the check at
// scaled-world@Scale-10 (33 IXPs, ~16k ASes): the acceptance scale of
// the incremental windowed pipeline.
func TestChurnMatchesOracleScale10(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled-world oracle check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("scaled-world oracle check skipped under the race detector")
	}
	cfg := topology.DefaultConfig()
	cfg.Scenario = "scaled-world"
	cfg.Scale = 10
	assertChurnMatchesOracle(t, 11, cfg)
}
