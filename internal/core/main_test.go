package core

import (
	"fmt"
	"testing"

	"nrmi/internal/leakcheck"
	"nrmi/internal/wire"
)

// This package's tests move no pooled buffers; its pooled resource is the
// arena a V3 decoder holds until it is released.
func TestMain(m *testing.M) { leakcheck.Main(m, arenasBalanced) }

func arenasBalanced() error {
	if acq, rel := wire.ArenaCounters(); acq != rel {
		return fmt.Errorf("core: %d arenas acquired, %d released", acq, rel)
	}
	return nil
}
