package bench

import (
	"fmt"

	"nrmi/internal/core"
	"nrmi/internal/netsim"
	"nrmi/internal/obs"
	"nrmi/internal/rmi"
	"nrmi/internal/wire"
)

// Addresses of the two simulated machines.
const (
	// ServerAddr names the paper's fast machine running the services.
	ServerAddr = "server"
	// ClientAddr names the machine driving the benchmark.
	ClientAddr = "client"
)

// EnvConfig selects one experimental configuration.
type EnvConfig struct {
	// Engine selects the codec generation (the JDK 1.3 / 1.4 stand-ins).
	Engine wire.Engine
	// DisablePlanCache selects the "portable" NRMI implementation.
	DisablePlanCache bool
}

// Env is a fully assembled two-machine benchmark world.
type Env struct {
	// Net is the in-process network joining the machines; it counts their
	// traffic and carries any fault plan a test attaches.
	Net *netsim.Network
	// Server is the service machine's endpoint.
	Server *rmi.Server
	// Client is the benchmark driver's client.
	Client *rmi.Client
	// ClientSrv is the driver machine's own server (callbacks and
	// remote-pointer exports).
	ClientSrv *rmi.Server
	// Registry is the shared wire registry.
	Registry *wire.Registry

	serverClient *rmi.Client
	// hostObs observes the server machine's two endpoints, Server and
	// serverClient, and nothing else.
	hostObs *obs.Observer
}

// NewEnv assembles servers, clients, services and reference environments
// for one configuration.
func NewEnv(cfg EnvConfig) (*Env, error) {
	reg := wire.NewRegistry()
	if err := RegisterTypes(reg); err != nil {
		return nil, err
	}
	n := netsim.NewNetwork()

	coreOpts := core.Options{
		Engine:           cfg.Engine,
		Registry:         reg,
		DisablePlanCache: cfg.DisablePlanCache,
	}
	serverEnv := &RefEnv{}
	clientEnv := &RefEnv{}

	e := &Env{Net: n, Registry: reg, hostObs: obs.New()}
	serverOpts := rmi.Options{
		Core:    coreOpts,
		Obs:     e.hostObs,
		WrapRef: serverEnv.Wrap,
	}
	clientOpts := rmi.Options{
		Core:    coreOpts,
		WrapRef: clientEnv.Wrap,
	}

	fail := func(err error) (*Env, error) {
		_ = n.Close()
		return nil, err
	}

	srv, err := rmi.NewServer(ServerAddr, serverOpts)
	if err != nil {
		return fail(err)
	}
	e.Server = srv
	for name, svc := range map[string]any{
		"copy":   &CopyService{},
		"nrmi":   &NRMIService{},
		"macro":  &MacroService{},
		"refmut": &RefMutator{},
	} {
		if err := srv.Export(name, svc); err != nil {
			return fail(err)
		}
	}
	ln, err := n.Listen(ServerAddr)
	if err != nil {
		return fail(err)
	}
	srv.Serve(ln)

	clSrv, err := rmi.NewServer(ClientAddr, clientOpts)
	if err != nil {
		return fail(err)
	}
	e.ClientSrv = clSrv
	cln, err := n.Listen(ClientAddr)
	if err != nil {
		return fail(err)
	}
	clSrv.Serve(cln)

	client, err := rmi.NewClient(n.Dial, clientOpts)
	if err != nil {
		return fail(err)
	}
	client.BindLocalServer(clSrv)
	e.Client = client
	clientEnv.Client = client

	serverClient, err := rmi.NewClient(n.Dial, serverOpts)
	if err != nil {
		return fail(err)
	}
	serverClient.BindLocalServer(srv)
	e.serverClient = serverClient
	serverEnv.Client = serverClient

	return e, nil
}

// Close tears the environment down.
func (e *Env) Close() error {
	var first error
	for _, c := range []interface{ Close() error }{e.Client, e.serverClient, e.Server, e.ClientSrv, e.Net} {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns the cumulative network counters.
func (e *Env) Stats() netsim.Stats { return e.Net.Stats() }

// ResetStats zeroes the network counters.
func (e *Env) ResetStats() { e.Net.ResetStats() }

// serverCPU returns the server machine's CPU so far, in milliseconds: the
// srv-* phases its Server ran, less the transport phases of the outbound
// calls (a Table 6 mutator's callbacks) its serverClient made from them,
// which wait on other machines.
func (e *Env) serverCPU() float64 {
	ns := e.hostObs.PhaseNs()
	own := ns[obs.PhaseSrvDecode] + ns[obs.PhaseSrvPrepare] + ns[obs.PhaseSrvExecute] + ns[obs.PhaseSrvEncode]
	return float64(own-ns[obs.PhaseTransport]) / 1e6
}

// String describes the configuration for table headers.
func (c EnvConfig) String() string {
	cache := "cached"
	if c.DisablePlanCache {
		cache = "portable"
	}
	return fmt.Sprintf("engine=%s %s", c.Engine, cache)
}
