package schooner

import (
	"fmt"
	"sort"
	"strings"

	"npss/internal/plane"
	"npss/internal/trace"
	"npss/internal/tseries"
	"npss/internal/wire"
)

// StatusReport renders the Manager's plain-text introspection dump:
// live lines, the health monitor's view of the machines, and the
// global trace counters and latency histograms. It is the Manager's
// answer on the status plane (`schooner-manager -status` on a
// deployment, Observe in-process) and what its /statusz serves.
func (m *Manager) StatusReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schooner manager on %s\n", m.host)

	b.WriteString("-- lines --\n")
	lines := m.Lines()
	if len(lines) == 0 {
		b.WriteString("(none)\n")
	}
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}

	b.WriteString("-- health --\n")
	hh := m.HostHealth()
	if hh == nil {
		b.WriteString("(monitor off)\n")
	} else {
		hosts := make([]string, 0, len(hh))
		for h := range hh {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		for _, h := range hosts {
			state := "up"
			if !hh[h] {
				state = "down"
			}
			fmt.Fprintf(&b, "%s %s\n", h, state)
		}
	}

	b.WriteString("-- counters --\n")
	b.WriteString(trace.Snapshot())

	if s := tseries.Active(); s != nil {
		b.WriteString("-- series --\n")
		b.WriteString(s.Snapshot().Format())
	}
	return b.String()
}

// StatusReport renders the Server's status: its answer on the status
// plane and what its /statusz serves.
func (s *Server) StatusReport() string {
	return fmt.Sprintf("schooner server on %s: %d processes\n", s.host, s.ProcessCount())
}

// observe answers a KObserve request for the named plane. Every plane
// but status reads the process globals all components share; status is
// the component's own report, and a component without one passes nil.
func observe(name string, status func() string) *wire.Message {
	p, ok := plane.Lookup(name)
	if !ok {
		return errMsg("schooner: unknown observe plane %q", name)
	}
	data, err := p.Answer(status)
	if err != nil {
		return errMsg("schooner: %v", err)
	}
	return &wire.Message{Kind: wire.KOK, Data: data}
}

// Observe asks the component listening on addr (a "host:port", or a
// bare host for its Manager) for one introspection plane and returns
// the payload: a text plane's text, a structured plane's JSON (its
// table row's Decode reads it back).
func Observe(t Transport, from, addr, name string) ([]byte, error) {
	if !strings.Contains(addr, ":") {
		addr += ":" + ManagerPort
	}
	resp, err := roundTrip(t, from, addr, &wire.Message{Kind: wire.KObserve, Name: name})
	if err != nil {
		return nil, err
	}
	if err := replyError(resp); err != nil {
		return nil, fmt.Errorf("schooner: %s query failed: %v", name, err)
	}
	return resp.Data, nil
}

// Source is one component a cluster roll-up asks: the name it is
// reported under and the address Observe dials.
type Source struct{ Name, Addr string }

// ClusterStatus renders the cluster roll-up `schooner-manager -status`
// prints: the status report of the Manager at sources[0], then every
// structured plane of every source in table order — merged into one
// section when the plane merges, listed source by source when it does
// not, and left out where it has nothing to show. A source that does
// not answer is reported once, in the first section, and left out, not
// fatal: a degraded cluster is exactly when the roll-up is wanted.
// With no sources there is no Manager to ask, and that is an error.
func ClusterStatus(t Transport, from string, sources []Source) (string, error) {
	if len(sources) == 0 {
		return "", fmt.Errorf("schooner: cluster status needs a Manager to ask")
	}
	status, err := Observe(t, from, sources[0].Addr, "status")
	if err != nil {
		return "", err
	}
	var planes []plane.Plane
	for _, p := range plane.Planes {
		if p.Text == nil {
			planes = append(planes, p)
		}
	}
	merged := make([]plane.Snapshot, len(planes))
	sections := make([]strings.Builder, len(planes))
	for i, p := range planes {
		if p.Merge != nil {
			merged[i] = p.New()
		}
	}
	var unreachable strings.Builder
	for _, src := range sources {
		data := make([][]byte, len(planes))
		for i, p := range planes {
			if data[i], err = Observe(t, from, src.Addr, p.Name); err != nil {
				break
			}
		}
		if err != nil {
			fmt.Fprintf(&unreachable, "(%s at %s unreachable: %v)\n", src.Name, src.Addr, err)
			continue
		}
		for i, p := range planes {
			s, err := p.Decode(data[i])
			if err != nil {
				return "", fmt.Errorf("schooner: %s %s: %w", src.Name, p.Name, err)
			}
			if p.Merge != nil {
				p.Merge(merged[i], s)
			} else if !p.Quiet(s) {
				fmt.Fprintf(&sections[i], "[%s]\n%s\n", src.Name, s.Format())
			}
		}
	}
	report := string(status)
	for i, p := range planes {
		if merged[i] != nil && !p.Quiet(merged[i]) {
			sections[i].WriteString(merged[i].Format())
		}
		// The first section always shows: it names the sources that did
		// not answer.
		if i == 0 || sections[i].Len() > 0 {
			report += "-- cluster " + p.Name + " --\n"
			if i == 0 {
				report += unreachable.String()
			}
			report += sections[i].String()
		}
	}
	return report, nil
}
