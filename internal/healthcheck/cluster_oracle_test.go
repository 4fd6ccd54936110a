package healthcheck_test

import (
	"fmt"
	"reflect"
	"testing"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/healthcheck"
)

// runCluster simulates the calibrated scenario under the health config.
func runCluster(t *testing.T, seed uint64, hc healthcheck.Config) *cluster.Result {
	t.Helper()
	cfg := calib.NewScenario(seed, 0.01).Cluster
	cfg.HealthCheck = &hc
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterRunMatchesOracle: in the full simulator, the gated monitor
// takes the same actions on the same sweeps as the full one, and the
// simulation emits the same events.
func TestClusterRunMatchesOracle(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	actions := 0
	for name, hc := range healthcheck.OracleConfigs() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				got := runCluster(t, seed, hc)
				healthcheck.UseOracleSweep(t)
				want := runCluster(t, seed, hc)
				if got.HealthSweeps != want.HealthSweeps || !reflect.DeepEqual(got.HealthActions, want.HealthActions) {
					t.Fatalf("gated monitor diverges:\n got %d sweeps %+v\nwant %d sweeps %+v",
						got.HealthSweeps, got.HealthActions, want.HealthSweeps, want.HealthActions)
				}
				if !reflect.DeepEqual(got.Events, want.Events) {
					t.Fatal("event streams diverge")
				}
				actions += len(got.HealthActions)
			})
		}
	}
	if actions == 0 {
		t.Fatal("no health config pulled a device")
	}
}
