package obs

import (
	"testing"

	"nrmi/internal/leakcheck"
)

// No test here moves a pooled buffer: the goroutine check alone applies.
func TestMain(m *testing.M) { leakcheck.Main(m) }
