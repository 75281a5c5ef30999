// Package exper is the experiment harness: it reproduces every table
// and figure of the paper's evaluation (Table 1's individual
// adapted-module tests, Table 2's combined test, Figure 1's control
// transfer, Figure 2's F100 network), the section 4.1 incremental-
// change scenarios, the section 4.2 extended-model scenarios, and the
// ablation comparisons indexed in DESIGN.md. Both cmd/npss-exp and the
// repository benchmarks drive these functions.
package exper

import (
	"npss/internal/core"
	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/npssproc"
	"npss/internal/schooner"
	"npss/internal/vclock"
)

// Machine names of the simulated testbed, following the paper: the
// hosts at NASA Lewis Research Center and at The University of
// Arizona.
const (
	SparcLerc  = "sparc10-lerc"
	SGI480Lerc = "sgi4d480-lerc"
	SGI420Lerc = "sgi4d420-lerc"
	ConvexLerc = "convex-lerc"
	CrayLerc   = "cray-lerc"
	RS6000Lerc = "rs6000-lerc"
	SparcUA    = "sparc10-ua"
	SGI340UA   = "sgi4d340-ua"
)

// lercHosts and uaHosts partition the machines by site.
var lercHosts = []string{SparcLerc, SGI480Lerc, SGI420Lerc, ConvexLerc, CrayLerc, RS6000Lerc}
var uaHosts = []string{SparcUA, SGI340UA}

// archOf maps machines to simulated architectures.
var archOf = map[string]*machine.Arch{
	SparcLerc:  machine.SPARC,
	SGI480Lerc: machine.SGI,
	SGI420Lerc: machine.SGI,
	ConvexLerc: machine.Convex,
	CrayLerc:   machine.CrayYMP,
	RS6000Lerc: machine.RS6000,
	SparcUA:    machine.SPARC,
	SGI340UA:   machine.SGI,
}

// Testbed is one fully deployed simulated environment.
type Testbed struct {
	Net      *netsim.Network
	Tr       *schooner.SimTransport
	Mgr      *schooner.Manager
	Servers  []*schooner.Server
	Registry *schooner.Registry
	// AVSHost is the machine the executive runs on.
	AVSHost string
}

// NewTestbed builds the full two-site topology of the paper:
//
//   - inside LeRC, the Sparc and the SGI 4D/480 share a local
//     Ethernet, while the Convex and the Cray sit behind multiple
//     gateways in the same building;
//   - inside Arizona, the Sparc and SGI share a local Ethernet;
//   - between the sites runs the 1993 Internet.
//
// The Manager and the executive live on avsHost. The network runs on
// the wall clock and records its delays without sleeping them.
func NewTestbed(avsHost string) (*Testbed, error) {
	return newTestbed(avsHost, nil)
}

// newTestbed builds the topology on clock: the wall clock when nil,
// otherwise a virtual clock on which every link delay is waited in
// full, so a run's elapsed time on it is the network-shaped time.
func newTestbed(avsHost string, clock *vclock.Virtual) (*Testbed, error) {
	n := netsim.New()
	if clock != nil {
		n.SetClock(clock)
		n.SetTimeScale(1)
	}
	for _, h := range append(append([]string{}, lercHosts...), uaHosts...) {
		if _, err := n.AddHost(h, archOf[h]); err != nil {
			return nil, err
		}
	}
	// Links. Default is local Ethernet; refine pair by pair.
	n.SetDefaultLink(netsim.LocalEthernet)
	multi := []string{ConvexLerc, CrayLerc, RS6000Lerc}
	for _, a := range multi {
		for _, b := range lercHosts {
			if a != b {
				n.SetLink(a, b, netsim.MultiGateway)
			}
		}
	}
	for _, a := range lercHosts {
		for _, b := range uaHosts {
			n.SetLink(a, b, netsim.Internet1993)
		}
	}
	tb := &Testbed{Net: n, Tr: schooner.NewSimTransport(n), AVSHost: avsHost}
	tb.Registry = schooner.NewRegistry()
	if err := npssproc.RegisterAll(tb.Registry); err != nil {
		return nil, err
	}
	mgr, err := schooner.StartManager(tb.Tr, avsHost)
	if err != nil {
		return nil, err
	}
	tb.Mgr = mgr
	for _, h := range append(append([]string{}, lercHosts...), uaHosts...) {
		srv, err := schooner.StartServer(tb.Tr, h, tb.Registry)
		if err != nil {
			tb.Stop()
			return nil, err
		}
		tb.Servers = append(tb.Servers, srv)
	}
	return tb, nil
}

// Stop shuts the deployment down.
func (tb *Testbed) Stop() {
	if tb.Mgr != nil {
		tb.Mgr.Stop()
	}
	for _, s := range tb.Servers {
		s.Stop()
	}
}

// NewExecutive builds an executive on the testbed's AVS machine with
// the F100 network loaded.
func (tb *Testbed) NewExecutive() (*core.Executive, error) {
	client := &schooner.Client{Transport: tb.Tr, Host: tb.AVSHost, ManagerHost: tb.AVSHost}
	machines := make([]string, 0, len(archOf))
	for _, h := range append(append([]string{}, lercHosts...), uaHosts...) {
		if h != tb.AVSHost {
			machines = append(machines, h)
		}
	}
	exec := core.NewExecutive(client, machines)
	if err := exec.BuildF100(); err != nil {
		return nil, err
	}
	return exec, nil
}

// LinkName describes the network between two machines as the paper's
// Table 1 does.
func LinkName(a, b string) string {
	siteA, siteB := site(a), site(b)
	if siteA != siteB {
		return "via Internet"
	}
	if isMulti(a) || isMulti(b) {
		return "same building, multiple gateways"
	}
	return "local Ethernet"
}

func site(h string) string {
	for _, u := range uaHosts {
		if u == h {
			return "The University of Arizona"
		}
	}
	return "Lewis Research Center"
}

// Site reports which institution a machine belongs to.
func Site(h string) string { return site(h) }

func isMulti(h string) bool {
	switch h {
	case ConvexLerc, CrayLerc, RS6000Lerc:
		return true
	}
	return false
}

// AllMachines lists every machine in the testbed.
func AllMachines() []string {
	return append(append([]string{}, lercHosts...), uaHosts...)
}

// ArchOf reports a testbed machine's architecture, nil for a machine
// the testbed does not have.
func ArchOf(h string) *machine.Arch { return archOf[h] }
