package wire

import (
	"fmt"
	"testing"

	"nrmi/internal/leakcheck"
)

// This package's tests move no pooled buffers; its pooled resource is the
// V3 arena.
func TestMain(m *testing.M) { leakcheck.Main(m, arenasBalanced) }

func arenasBalanced() error {
	if acq, rel := ArenaCounters(); acq != rel {
		return fmt.Errorf("wire: %d arenas acquired, %d released", acq, rel)
	}
	return nil
}
