package core

import (
	"fmt"
	"testing"

	"nrmi/internal/leakcheck"
	"nrmi/internal/wire"
)

// This package's tests move no pooled buffers; its pooled resources are the
// arena a V3 decoder holds until it is released and the staging slab a
// decoder keeps.
func TestMain(m *testing.M) { leakcheck.Main(m, arenasBalanced, stagingBalanced) }

func stagingBalanced() error {
	if carved, zeroed, dropped := wire.StagingCounters(); carved != zeroed+dropped {
		return fmt.Errorf("core: %d staging slabs carved, %d zeroed, %d dropped", carved, zeroed, dropped)
	}
	return nil
}

func arenasBalanced() error {
	if acq, rel := wire.ArenaCounters(); acq != rel {
		return fmt.Errorf("core: %d arenas acquired, %d released", acq, rel)
	}
	return nil
}
