// Package netsim emulates the NPSS testbed's machines and networks: a
// set of named hosts, each with a simulated machine architecture, and
// shaped links between them with configurable one-way latency and
// bandwidth. It stands in for the local Ethernet, the multi-gateway
// building networks, and the 1993 Internet paths between NASA Lewis
// Research Center and The University of Arizona used in the paper's
// Table 1 and Table 2 experiments.
//
// Connections carry whole wire.Messages. Each message is charged the
// link's one-way latency plus its serialization time (size divided by
// bandwidth), serialized behind earlier messages on the same
// direction of the connection. Two clocks are kept: the full simulated
// delay is always recorded in the per-link statistics, while the
// actual goroutine sleep is multiplied by the network's TimeScale so
// that an "Internet" experiment need not really take minutes. Links
// and hosts can be marked down for failure injection.
package netsim

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"npss/internal/flight"
	"npss/internal/machine"
	"npss/internal/trace"
	"npss/internal/vclock"
	"npss/internal/wire"
)

// LinkSpec describes the network path between two hosts.
type LinkSpec struct {
	// Name labels the path in statistics ("local Ethernet").
	Name string
	// Latency is the one-way propagation delay per message.
	Latency time.Duration
	// Bandwidth is in bytes per second; zero means infinite.
	Bandwidth float64
}

// Delay computes the simulated one-way delay of a message of n bytes.
func (l LinkSpec) Delay(n int) time.Duration {
	d := l.Latency
	if l.Bandwidth > 0 {
		d += time.Duration(float64(n) / l.Bandwidth * float64(time.Second))
	}
	return d
}

// Canonical link presets matching the paper's Table 1 network column.
// Numbers are period-plausible: 10 Mbit/s shared Ethernet, building
// backbones crossing several gateways, and a T1-grade 1993 Internet
// path between Ohio and Arizona.
var (
	// Loopback connects a host to itself.
	Loopback = LinkSpec{Name: "loopback", Latency: 50 * time.Microsecond, Bandwidth: 100e6}
	// LocalEthernet is a shared 10 Mbit/s segment.
	LocalEthernet = LinkSpec{Name: "local Ethernet", Latency: 1 * time.Millisecond, Bandwidth: 1.25e6}
	// MultiGateway is a same-building path crossing multiple gateways.
	MultiGateway = LinkSpec{Name: "same building, multiple gateways", Latency: 5 * time.Millisecond, Bandwidth: 1e6}
	// Internet1993 is the wide-area path between NASA Lewis (Cleveland)
	// and The University of Arizona (Tucson) circa 1993.
	Internet1993 = LinkSpec{Name: "via Internet", Latency: 45 * time.Millisecond, Bandwidth: 150e3}
)

// LinkStats accumulates traffic accounting for one link.
type LinkStats struct {
	Messages int64
	Bytes    int64
	// SimDelay is the total simulated delay experienced by messages on
	// the link (the unscaled clock).
	SimDelay time.Duration
	// Dropped counts messages lost to injected faults (loss or flap).
	Dropped int64
}

// FaultSpec describes probabilistic fault injection on one link. All
// randomness is drawn from a per-link generator seeded by the
// network's fault seed, so two networks built with the same seed and
// the same traffic see identical drop and jitter sequences.
type FaultSpec struct {
	// LossProb is the probability each message is silently dropped.
	LossProb float64
	// MaxJitter adds a uniform extra one-way delay in [0, MaxJitter)
	// to each delivered message.
	MaxJitter time.Duration
	// FlapEvery and FlapLen model transient link flaps: after every
	// FlapEvery carried messages the link goes down for a burst,
	// silently dropping the next FlapLen messages. Zero disables
	// flapping.
	FlapEvery int
	FlapLen   int
}

// enabled reports whether the spec injects any fault at all.
func (f FaultSpec) enabled() bool {
	return f.LossProb > 0 || f.MaxJitter > 0 || (f.FlapEvery > 0 && f.FlapLen > 0)
}

// linkFaults is the mutable fault state of one link: the spec, its
// seeded generator, and the flap bookkeeping.
type linkFaults struct {
	spec     FaultSpec
	rng      *rand.Rand
	carried  int // messages since the last flap
	flapLeft int // messages remaining in the current flap burst
}

// Network is a collection of hosts and links.
type Network struct {
	mu          sync.Mutex
	hosts       map[string]*Host
	links       map[[2]string]LinkSpec
	defaultLink LinkSpec
	stats       map[string]*LinkStats
	timeScale   float64
	downHosts   map[string]bool
	downLinks   map[[2]string]bool
	faultSeed   int64
	faults      map[[2]string]*linkFaults
	jitter      *rand.Rand
	clock       vclock.Clock
	// openConns counts connection endpoints created and not yet closed
	// (each direction of a dial counts one). Leak checks compare it to
	// zero after teardown.
	openConns atomic.Int64
}

// OpenConns returns the number of connection endpoints currently open
// on the network: every successful Dial contributes two (the client
// side and the accepted server side), and each endpoint's Close
// retires one. A fully quiesced network reports zero.
func (n *Network) OpenConns() int { return int(n.openConns.Load()) }

// New creates an empty network. The default link between hosts without
// an explicit link is LocalEthernet, and the default TimeScale is 0
// (no real sleeping; simulated delays are recorded but not waited
// for). Set a nonzero TimeScale to make wall-clock measurements
// reflect network shape.
func New() *Network {
	return &Network{
		hosts:       make(map[string]*Host),
		links:       make(map[[2]string]LinkSpec),
		defaultLink: LocalEthernet,
		stats:       make(map[string]*LinkStats),
		downHosts:   make(map[string]bool),
		downLinks:   make(map[[2]string]bool),
		faults:      make(map[[2]string]*linkFaults),
		jitter:      rand.New(rand.NewSource(jitterSeed)),
		clock:       vclock.Real(),
	}
}

// jitterSeed seeds a new network's jitter source, so runs on
// identically built networks draw identical retry delays without
// naming a seed.
const jitterSeed = 1993

// Jitter draws the next number in [0, 1) from the network's jitter
// source: the randomness the components built on the network spread
// their retries with. It starts at seed 1993, and SetFaultSeed
// re-seeds it, so one seed fixes both the faults and the retry timing.
func (n *Network) Jitter() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.jitter.Float64()
}

// SetClock installs the clock that times message deliveries. The
// default is the wall clock; a deterministic simulation installs a
// vclock.Virtual (with TimeScale 1.0) so every link delay is waited
// in virtual time. Install the clock before traffic flows.
func (n *Network) SetClock(c vclock.Clock) {
	if c == nil {
		c = vclock.Real()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clock = c
}

// Clock returns the network's delivery clock.
func (n *Network) Clock() vclock.Clock {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.clock
}

// SetTimeScale sets the fraction of simulated network delay that is
// actually slept: 1.0 gives real-time emulation, 0 disables sleeping.
func (n *Network) SetTimeScale(s float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.timeScale = s
}

// SetDefaultLink sets the link used between host pairs that have no
// explicit link.
func (n *Network) SetDefaultLink(l LinkSpec) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaultLink = l
}

// ScaleLatency multiplies every configured link's propagation latency
// by f — the default link and every explicit pair — leaving bandwidth
// untouched. The profile regression gate uses it to model a degraded
// network (f=2 doubles every path's delay); self-loopback paths that
// fall back to the Loopback preset are not scaled. Nonpositive f is
// ignored.
func (n *Network) ScaleLatency(f float64) {
	if f <= 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaultLink.Latency = time.Duration(float64(n.defaultLink.Latency) * f)
	for k, l := range n.links {
		l.Latency = time.Duration(float64(l.Latency) * f)
		n.links[k] = l
	}
}

// AddHost creates a host with the given simulated architecture.
func (n *Network) AddHost(name string, arch *machine.Arch) (*Host, error) {
	if arch == nil {
		return nil, fmt.Errorf("netsim: host %q needs an architecture", name)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.hosts[name]; dup {
		return nil, fmt.Errorf("netsim: duplicate host %q", name)
	}
	h := &Host{name: name, arch: arch, net: n, listeners: make(map[string]*Listener)}
	n.hosts[name] = h
	return h, nil
}

// MustAddHost is AddHost for static topology construction.
func (n *Network) MustAddHost(name string, arch *machine.Arch) *Host {
	h, err := n.AddHost(name, arch)
	if err != nil {
		panic(err)
	}
	return h
}

// Host returns the named host.
func (n *Network) Host(name string) (*Host, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h, ok := n.hosts[name]; ok {
		return h, nil
	}
	return nil, fmt.Errorf("netsim: unknown host %q", name)
}

// Hosts lists host names, sorted.
func (n *Network) Hosts() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	names := make([]string, 0, len(n.hosts))
	for name := range n.hosts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// SetLink installs a bidirectional link between two hosts.
func (n *Network) SetLink(a, b string, l LinkSpec) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey(a, b)] = l
}

// linkFor resolves the link spec between two hosts.
func (n *Network) linkFor(a, b string) LinkSpec {
	n.mu.Lock()
	defer n.mu.Unlock()
	if a == b {
		if l, ok := n.links[linkKey(a, b)]; ok {
			return l
		}
		return Loopback
	}
	if l, ok := n.links[linkKey(a, b)]; ok {
		return l
	}
	return n.defaultLink
}

// SetHostDown marks a host up or down. Dials to or from a down host
// fail, and messages in flight to it are dropped with an error on the
// receiving side.
func (n *Network) SetHostDown(name string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.downHosts[name] = down
	detail := "host-up"
	if down {
		detail = "host-down"
	}
	flight.Record(flight.Event{Kind: flight.KindFaultInject, Component: "netsim",
		Name: name, Detail: detail})
}

// SetLinkDown marks the path between two hosts up or down.
func (n *Network) SetLinkDown(a, b string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.downLinks[linkKey(a, b)] = down
}

// SetFaultSeed seeds the fault-injection generators and the network's
// jitter source. Links made flaky before the call are re-seeded, so
// seed then traffic order fully determines every drop and jitter
// decision and every retry delay.
func (n *Network) SetFaultSeed(seed int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faultSeed = seed
	n.jitter = rand.New(rand.NewSource(seed))
	for key, lf := range n.faults {
		lf.rng = rand.New(rand.NewSource(faultSeedFor(seed, key)))
		lf.carried, lf.flapLeft = 0, 0
	}
}

// SetLinkFlaky installs (or, with a zero FaultSpec, removes)
// probabilistic fault injection on the path between two hosts.
func (n *Network) SetLinkFlaky(a, b string, f FaultSpec) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := linkKey(a, b)
	if !f.enabled() {
		delete(n.faults, key)
		return
	}
	n.faults[key] = &linkFaults{
		spec: f,
		rng:  rand.New(rand.NewSource(faultSeedFor(n.faultSeed, key))),
	}
}

// faultSeedFor derives a per-link seed so links fault independently
// but reproducibly.
func faultSeedFor(seed int64, key [2]string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key[0]))
	h.Write([]byte{0})
	h.Write([]byte(key[1]))
	return seed ^ int64(h.Sum64())
}

// faultFor draws the fault decision for one message on a link: whether
// it is dropped, and how much jitter it suffers otherwise. Both random
// numbers are always drawn so the sequence is independent of which
// faults fire.
func (n *Network) faultFor(a, b string) (drop bool, jitter time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	lf, ok := n.faults[linkKey(a, b)]
	if !ok {
		return false, 0
	}
	pLoss := lf.rng.Float64()
	pJit := lf.rng.Float64()
	if lf.flapLeft > 0 {
		lf.flapLeft--
		return true, 0
	}
	lf.carried++
	if lf.spec.FlapEvery > 0 && lf.spec.FlapLen > 0 && lf.carried >= lf.spec.FlapEvery {
		lf.carried = 0
		lf.flapLeft = lf.spec.FlapLen
	}
	if pLoss < lf.spec.LossProb {
		return true, 0
	}
	if lf.spec.MaxJitter > 0 {
		jitter = time.Duration(pJit * float64(lf.spec.MaxJitter))
	}
	return false, jitter
}

func (n *Network) pathDown(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.downHosts[a] || n.downHosts[b] || n.downLinks[linkKey(a, b)]
}

func (n *Network) scale() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.timeScale
}

func (n *Network) account(link LinkSpec, bytes int, delay time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.stats[link.Name]
	if !ok {
		st = &LinkStats{}
		n.stats[link.Name] = st
	}
	st.Messages++
	st.Bytes += int64(bytes)
	st.SimDelay += delay
}

// accountDrop records a message lost to fault injection.
func (n *Network) accountDrop(link LinkSpec, bytes int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.stats[link.Name]
	if !ok {
		st = &LinkStats{}
		n.stats[link.Name] = st
	}
	st.Messages++
	st.Bytes += int64(bytes)
	st.Dropped++
	trace.Count("netsim.drops")
	flight.Record(flight.Event{Kind: flight.KindFaultInject, Component: "netsim",
		Name: link.Name, Detail: "drop"})
}

// TotalDropped sums fault-injected message losses over all links.
func (n *Network) TotalDropped() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total int64
	for _, st := range n.stats {
		total += st.Dropped
	}
	return total
}

// Stats returns a copy of the per-link statistics keyed by link name.
func (n *Network) Stats() map[string]LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]LinkStats, len(n.stats))
	for k, v := range n.stats {
		out[k] = *v
	}
	return out
}

// TotalSimDelay sums the simulated delay over all links: the network
// component of a run's simulated duration.
func (n *Network) TotalSimDelay() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total time.Duration
	for _, st := range n.stats {
		total += st.SimDelay
	}
	return total
}

// ResetStats zeroes the traffic accounting.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = make(map[string]*LinkStats)
}

// Host is one simulated machine on the network.
type Host struct {
	name string
	arch *machine.Arch
	net  *Network

	mu        sync.Mutex
	listeners map[string]*Listener
	nextPort  int
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Arch returns the host's simulated architecture.
func (h *Host) Arch() *machine.Arch { return h.arch }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Listen opens a named port on the host. An empty port name allocates
// a fresh ephemeral name. The returned listener's Addr is
// "host:port", dialable from any host on the network.
func (h *Host) Listen(port string) (*Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if port == "" {
		h.nextPort++
		port = fmt.Sprintf("ephemeral-%d", h.nextPort)
	}
	if _, dup := h.listeners[port]; dup {
		return nil, fmt.Errorf("netsim: port %q already in use on %s", port, h.name)
	}
	l := &Listener{
		host:    h,
		port:    port,
		backlog: vclock.NewQueue[*simConn](h.net.Clock()),
	}
	h.listeners[port] = l
	return l, nil
}

func (h *Host) removeListener(port string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.listeners, port)
}

// Dial connects from this host to "host:port" elsewhere on the
// network, returning the client side of the connection.
func (h *Host) Dial(addr string) (wire.Conn, error) {
	target, port, err := SplitAddr(addr)
	if err != nil {
		return nil, err
	}
	peer, err := h.net.Host(target)
	if err != nil {
		return nil, err
	}
	if h.net.pathDown(h.name, target) {
		return nil, fmt.Errorf("netsim: no route from %s to %s (down)", h.name, target)
	}
	peer.mu.Lock()
	l, ok := peer.listeners[port]
	peer.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netsim: connection refused: %s has no listener on %q", target, port)
	}
	link := h.net.linkFor(h.name, target)
	client, server := newConnPair(h.net, link, h.name, target)
	if !l.backlog.Push(server) {
		client.Close()
		server.Close()
		return nil, fmt.Errorf("netsim: connection refused: listener on %s closed", addr)
	}
	return client, nil
}

// SplitAddr splits "host:port" into its components.
func SplitAddr(addr string) (host, port string, err error) {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			if i == 0 || i == len(addr)-1 {
				break
			}
			return addr[:i], addr[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("netsim: address %q not of form host:port", addr)
}

// JoinAddr forms "host:port".
func JoinAddr(host, port string) string { return host + ":" + port }

// Listener accepts connections on a host port.
type Listener struct {
	host    *Host
	port    string
	backlog *vclock.Queue[*simConn]
	once    sync.Once
}

// Addr returns the dialable "host:port" address.
func (l *Listener) Addr() string { return JoinAddr(l.host.name, l.port) }

// Accept blocks for the next inbound connection.
func (l *Listener) Accept() (wire.Conn, error) {
	if c, ok := l.backlog.Pop(); ok {
		return c, nil
	}
	return nil, io.EOF
}

// Close shuts the listener; blocked Accepts return io.EOF. Inbound
// connections still queued in the backlog — dialed but never accepted
// — are closed so they do not count as leaked endpoints.
func (l *Listener) Close() error {
	l.once.Do(func() {
		l.backlog.Close()
		l.host.removeListener(l.port)
		for c, ok := l.backlog.Pop(); ok; c, ok = l.backlog.Pop() {
			c.Close()
		}
	})
	return nil
}
