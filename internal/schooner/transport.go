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
	"maps"
	"math/rand"
	"net"
	"slices"
	"strconv"
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
	// Hosts lists every machine, sorted: the universe the Manager's
	// health monitor heartbeats and fails processes over onto.
	Hosts() []string
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

// Hosts lists the simulated hosts, sorted.
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

// TCPTransport runs Schooner over real TCP sockets. Every address is
// logical "machine:port", as on the simulated network, so a procedure
// process's address names its machine from any operating system
// process: host batching, per-host metric labels and off-host callers
// all see the machine. A well-known port resolves through the address
// table. An ephemeral listener on machine h binds port 0 on h's IP
// (its Server's configured address, or loopback when it has none) and
// is addressed "h:<port number>", which Dial resolves the same way.
// Every dial is bounded by rpcTimeout. The transport keeps wall-clock
// time and spreads retries with the runtime's randomly seeded global
// source.
type TCPTransport struct {
	// archs maps logical host names to architectures; it is fixed at
	// construction and read without the lock.
	archs map[string]*machine.Arch
	mu    sync.Mutex
	// addrs maps logical "host:port" names to dialable socket
	// addresses: configured for other processes' well-known endpoints,
	// filled by Listen for this process's named ports.
	addrs map[string]string
	// bind maps logical "host:port" names to the local socket address
	// Listen binds for them.
	bind map[string]string
}

// NewTCPTransport creates a transport for a deployment inside one
// operating system process: Listen fills the address table, so no
// configuration is needed.
func NewTCPTransport(archs map[string]*machine.Arch) *TCPTransport {
	return NewConfiguredTCPTransport(archs, nil, nil)
}

// NewConfiguredTCPTransport creates a transport for a deployment
// across operating system processes, the cmd/schooner-* daemons'.
//
//	archs: logical host -> simulated architecture
//	addrs: logical "host:port" -> dialable "ip:port"
//	bind:  logical "host:port" -> local "ip:port" to bind
func NewConfiguredTCPTransport(archs map[string]*machine.Arch, addrs, bind map[string]string) *TCPTransport {
	t := &TCPTransport{archs: maps.Clone(archs), addrs: make(map[string]string, len(addrs)), bind: maps.Clone(bind)}
	maps.Copy(t.addrs, addrs)
	return t
}

// Clock is the wall clock.
func (*TCPTransport) Clock() vclock.Clock { return vclock.Real() }

// Jitter draws from the runtime's randomly seeded global source.
func (*TCPTransport) Jitter() float64 { return rand.Float64() }

// Hosts lists the logical hosts, sorted.
func (t *TCPTransport) Hosts() []string {
	out := make([]string, 0, len(t.archs))
	for h := range t.archs {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// HostArch reports a logical host's architecture.
func (t *TCPTransport) HostArch(host string) (*machine.Arch, error) {
	if a, ok := t.archs[host]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("schooner: unknown host %q", host)
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
	if _, configured := l.t.bind[l.logical]; !configured {
		delete(l.t.addrs, l.logical)
	}
	l.t.mu.Unlock()
	return l.inner.Close()
}

func (l *tcpListener) Addr() string { return l.logical }

// hostIP is the IP a machine's sockets are bound and dialed on: its
// Server's, or loopback when it has none. The caller holds t.mu.
func (t *TCPTransport) hostIP(host string) string {
	if ip, _, err := net.SplitHostPort(t.addrs[netsim.JoinAddr(host, ServerPort)]); err == nil {
		return ip
	}
	return "127.0.0.1"
}

// Listen binds a named port at its bind entry, or else at port 0 on
// the machine's IP, and records its socket address; an empty port
// binds an ephemeral port on the machine's IP.
func (t *TCPTransport) Listen(host, port string) (Listener, error) {
	if _, ok := t.archs[host]; !ok {
		return nil, fmt.Errorf("schooner: unknown host %q", host)
	}
	logical := netsim.JoinAddr(host, port)
	t.mu.Lock()
	defer t.mu.Unlock()
	local, configured := t.bind[logical]
	if !configured {
		if _, taken := t.addrs[logical]; taken {
			return nil, fmt.Errorf("schooner: port %q already in use on %s", port, host)
		}
		local = net.JoinHostPort(t.hostIP(host), "0")
	}
	inner, err := net.Listen("tcp", local)
	if err != nil {
		return nil, err
	}
	if port == "" {
		logical = netsim.JoinAddr(host, strconv.Itoa(inner.Addr().(*net.TCPAddr).Port))
	} else {
		t.addrs[logical] = inner.Addr().String()
	}
	return &tcpListener{t: t, inner: inner, logical: logical}, nil
}

// resolve maps a logical address to the socket address it names: its
// table entry, or for "machine:<port number>" that port on the
// machine's IP. The caller holds t.mu.
func (t *TCPTransport) resolve(addr string) (string, bool) {
	if real, ok := t.addrs[addr]; ok {
		return real, true
	}
	host, port, err := netsim.SplitAddr(addr)
	if _, known := t.archs[host]; err != nil || !known {
		return "", false
	}
	if _, err := strconv.ParseUint(port, 10, 16); err != nil {
		return "", false
	}
	return net.JoinHostPort(t.hostIP(host), port), true
}

// Dial resolves a logical address and connects to it, waiting at most
// rpcTimeout for the connection.
func (t *TCPTransport) Dial(fromHost, addr string) (wire.Conn, error) {
	t.mu.Lock()
	real, ok := t.resolve(addr)
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("schooner: connection refused: no listener at %q", addr)
	}
	countDial(addr)
	c, err := net.DialTimeout("tcp", real, rpcTimeout)
	if err != nil {
		return nil, fmt.Errorf("schooner: dialing %s (%s): %w", addr, real, err)
	}
	return wire.NewStreamConn(c, addr), nil
}
