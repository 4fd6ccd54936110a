package healthcheck

import "testing"

// UseOracleSweep makes the monitors New builds run the ungated historical
// sweep until the test ends.
func UseOracleSweep(t testing.TB) { withSweep(t, (*Monitor).oracleSweep) }

// OracleConfigs exposes the differential tests' health configs.
var OracleConfigs = oracleConfigs
