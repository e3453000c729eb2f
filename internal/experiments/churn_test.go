package experiments

import (
	"reflect"
	"testing"
	"time"

	"mlpeering/internal/churn"
	"mlpeering/internal/topology"
)

func churnResult(t *testing.T, seed int64) *ChurnResult {
	t.Helper()
	ccfg := churn.DefaultConfig(seed)
	ccfg.Epochs = 3
	ccfg.Interval = 10 * time.Minute
	ct, err := BuildChurnTrace(topology.TestConfig(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ct.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunChurnShape checks the windowed-inference table is well-formed:
// one row per epoch, real withdraw traffic, live inference per window,
// and sane stability/precision values.
func TestRunChurnShape(t *testing.T) {
	res := churnResult(t, 7)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	sawWithdraw, sawLinks := false, false
	for i, row := range res.Rows {
		if row.Window != i {
			t.Fatalf("row %d numbered %d", i, row.Window)
		}
		if row.Ops == 0 || row.DirtyDests == 0 {
			t.Fatalf("row %d: empty epoch (%+v)", i, row)
		}
		if row.Withdrawn > 0 {
			sawWithdraw = true
		}
		if row.Links > 0 {
			sawLinks = true
		}
		if row.Stability < 0 || row.Stability > 1 || row.Precision < 0 || row.Precision > 1 ||
			row.Recall < 0 || row.Recall > 1 {
			t.Fatalf("row %d: metrics out of range: %+v", i, row)
		}
		if row.LiveRoutes == 0 {
			t.Fatalf("row %d: live table empty", i)
		}
	}
	if !sawWithdraw {
		t.Fatal("no window saw withdrawals")
	}
	if !sawLinks {
		t.Fatal("no window inferred any links")
	}
	out := res.Render().String()
	if out == "" {
		t.Fatal("empty render")
	}
}

// TestRunChurnDeterministic pins the whole experiment: same config ⇒
// identical per-window rows.
func TestRunChurnDeterministic(t *testing.T) {
	a := churnResult(t, 7)
	b := churnResult(t, 7)
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("rows diverge:\n%+v\n---\n%+v", a.Rows, b.Rows)
	}
}
