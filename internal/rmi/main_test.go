package rmi

import (
	"testing"

	"nrmi/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m, leakcheck.Pooled) }
