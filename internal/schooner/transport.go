// Package schooner implements the Schooner heterogeneous remote
// procedure call facility: the runtime system that, together with the
// UTS type system (package uts) and the stub compiler (package
// stubgen), lets a program invoke procedures on other machines
// regardless of architecture or implementation language.
//
// The runtime consists of three kinds of system component, exactly as
// in the paper:
//
//   - the Manager, one per executing program: it starts and shuts down
//     processes, maintains the table of exported procedures and their
//     locations, and performs runtime type-checking of calls against
//     the UTS specifications;
//
//   - Servers, one per machine: the Manager asks a machine's Server to
//     instantiate procedure files as processes;
//
//   - the communication library (Client/Line), linked with every
//     module, which locates and invokes remote procedures.
//
// The package implements the extended Schooner model of section 4.2:
// a persistent Manager serving multiple lines (independent sequential
// threads of control), per-line procedure name databases permitting
// duplicate names across lines, per-line shutdown, procedure
// migration with lazy client cache invalidation, shared procedures
// visible to every line, and the dynamic startup protocol in which a
// module contacts the Manager when it is configured rather than the
// Manager launching everything a priori.
package schooner

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"

	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/trace"
	"npss/internal/vclock"
	"npss/internal/wire"
)

// addrHost extracts the machine part of a dialable "host:port"
// address, for per-host metric labels and span annotations.
func addrHost(addr string) string {
	host, _, err := netsim.SplitAddr(addr)
	if err != nil {
		return addr
	}
	return host
}

// countDial records a labeled per-destination dial counter when
// detailed tracing is enabled; a no-op otherwise.
func countDial(addr string) {
	if trace.Enabled() {
		trace.Count(trace.LKey("schooner.transport.dials", trace.Label{Key: "host", Value: addrHost(addr)}))
	}
}

// ManagerPort is the well-known port the Manager listens on.
const ManagerPort = "schx-manager"

// ServerPort is the well-known port every Server listens on.
const ServerPort = "schx-server"

// Transport abstracts how Schooner components reach each other, so the
// same runtime runs over the in-process network simulator and over
// real TCP sockets. It is also the components' whole environment: each
// reads its clock from the transport it is built on, once, when it is
// constructed, and draws its retry jitter from it.
type Transport interface {
	// Listen opens a listener on the named host. Port may be empty for
	// an ephemeral port; the listener's Addr is dialable.
	Listen(host, port string) (Listener, error)
	// Dial connects from one host to an address returned by a
	// listener on another (or the same) host.
	Dial(fromHost, addr string) (wire.Conn, error)
	// HostArch reports the simulated architecture of a host.
	HostArch(host string) (*machine.Arch, error)
	// Clock is the clock every component on the transport keeps time
	// by: deadlines, backoff, periodic loops and the goroutines they
	// start.
	Clock() vclock.Clock
	// Jitter draws the next number in [0, 1) from the transport's
	// jitter source, which spreads retry delays.
	Jitter() float64
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (wire.Conn, error)
	Close() error
	Addr() string
}

// HostLister is optionally implemented by transports that know the
// full machine universe; the Manager's health monitor uses it to
// decide which machines to heartbeat and where failover may place
// restarted processes. Both SimTransport and TCPTransport implement
// it.
type HostLister interface {
	Hosts() []string
}

// SimTransport runs Schooner over a netsim.Network.
type SimTransport struct {
	Net *netsim.Network
}

// NewSimTransport wraps a simulated network.
func NewSimTransport(n *netsim.Network) *SimTransport { return &SimTransport{Net: n} }

// Listen opens a port on a simulated host.
func (t *SimTransport) Listen(host, port string) (Listener, error) {
	h, err := t.Net.Host(host)
	if err != nil {
		return nil, err
	}
	return h.Listen(port)
}

// Dial connects across the simulated network.
func (t *SimTransport) Dial(fromHost, addr string) (wire.Conn, error) {
	h, err := t.Net.Host(fromHost)
	if err != nil {
		return nil, err
	}
	countDial(addr)
	return h.Dial(addr)
}

// Hosts lists the simulated hosts, sorted. It satisfies the optional
// HostLister interface the Manager's health monitor uses to learn the
// machine universe.
func (t *SimTransport) Hosts() []string { return t.Net.Hosts() }

// Clock is the simulated network's clock.
func (t *SimTransport) Clock() vclock.Clock { return t.Net.Clock() }

// Jitter draws from the simulated network's seeded jitter source.
func (t *SimTransport) Jitter() float64 { return t.Net.Jitter() }

// HostArch reports a simulated host's architecture.
func (t *SimTransport) HostArch(host string) (*machine.Arch, error) {
	h, err := t.Net.Host(host)
	if err != nil {
		return nil, err
	}
	return h.Arch(), nil
}

// TCPTransport runs Schooner over real TCP sockets on the local
// machine: every logical host maps to 127.0.0.1 with kernel-assigned
// ports, and a shared rendezvous table maps "host:port" names to real
// socket addresses. This is the transport the cmd/schooner-* daemons
// use to emulate a multi-machine deployment with real processes.
type TCPTransport struct {
	mu    sync.Mutex
	archs map[string]*machine.Arch
	// names maps logical "host:port" to "127.0.0.1:nnnn".
	names map[string]string
}

// The two transports over real sockets, TCPTransport and
// StaticTCPTransport, keep wall-clock time and spread retries with the
// runtime's randomly seeded global source.

// Clock is the wall clock.
func (*TCPTransport) Clock() vclock.Clock { return vclock.Real() }

// Jitter draws from the runtime's randomly seeded global source.
func (*TCPTransport) Jitter() float64 { return rand.Float64() }

// Clock is the wall clock.
func (*StaticTCPTransport) Clock() vclock.Clock { return vclock.Real() }

// Jitter draws from the runtime's randomly seeded global source.
func (*StaticTCPTransport) Jitter() float64 { return rand.Float64() }

// NewTCPTransport creates a TCP transport with the given host
// architecture table.
func NewTCPTransport(archs map[string]*machine.Arch) *TCPTransport {
	cp := make(map[string]*machine.Arch, len(archs))
	for k, v := range archs {
		cp[k] = v
	}
	return &TCPTransport{archs: cp, names: make(map[string]string)}
}

// AddHost registers a logical host after construction.
func (t *TCPTransport) AddHost(name string, arch *machine.Arch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.archs[name] = arch
}

// Hosts lists the registered logical hosts, sorted.
func (t *TCPTransport) Hosts() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.archs))
	for h := range t.archs {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

type tcpListener struct {
	t       *TCPTransport
	inner   net.Listener
	logical string
}

func (l *tcpListener) Accept() (wire.Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return wire.NewStreamConn(c, c.RemoteAddr().String()), nil
}

func (l *tcpListener) Close() error {
	l.t.mu.Lock()
	delete(l.t.names, l.logical)
	l.t.mu.Unlock()
	return l.inner.Close()
}

func (l *tcpListener) Addr() string { return l.logical }

// Listen opens a TCP listener bound to 127.0.0.1 and registers its
// logical name.
func (t *TCPTransport) Listen(host, port string) (Listener, error) {
	t.mu.Lock()
	if _, ok := t.archs[host]; !ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("schooner: unknown host %q", host)
	}
	t.mu.Unlock()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if port == "" {
		port = fmt.Sprintf("eph-%d", inner.Addr().(*net.TCPAddr).Port)
	}
	logical := netsim.JoinAddr(host, port)
	t.mu.Lock()
	if _, dup := t.names[logical]; dup {
		t.mu.Unlock()
		inner.Close()
		return nil, fmt.Errorf("schooner: port %q already in use on %s", port, host)
	}
	t.names[logical] = inner.Addr().String()
	t.mu.Unlock()
	return &tcpListener{t: t, inner: inner, logical: logical}, nil
}

// Dial resolves a logical address and connects over TCP.
func (t *TCPTransport) Dial(fromHost, addr string) (wire.Conn, error) {
	t.mu.Lock()
	real, ok := t.names[addr]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("schooner: connection refused: no listener at %q", addr)
	}
	countDial(addr)
	c, err := net.Dial("tcp", real)
	if err != nil {
		return nil, err
	}
	return wire.NewStreamConn(c, addr), nil
}

// HostArch reports a logical host's architecture.
func (t *TCPTransport) HostArch(host string) (*machine.Arch, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a, ok := t.archs[host]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("schooner: unknown host %q", host)
}
