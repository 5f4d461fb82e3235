package wire

import (
	"fmt"
	"testing"

	"nrmi/internal/leakcheck"
)

// This package's tests move no pooled buffers; its pooled resources are the
// V3 arena and the staging slab a decoder keeps.
func TestMain(m *testing.M) { leakcheck.Main(m, arenasBalanced, stagingBalanced) }

func stagingBalanced() error {
	if carved, zeroed, dropped := StagingCounters(); carved != zeroed+dropped {
		return fmt.Errorf("wire: %d staging slabs carved, %d zeroed, %d dropped", carved, zeroed, dropped)
	}
	return nil
}

func arenasBalanced() error {
	if acq, rel := ArenaCounters(); acq != rel {
		return fmt.Errorf("wire: %d arenas acquired, %d released", acq, rel)
	}
	return nil
}
