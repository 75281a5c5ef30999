package schooner

import (
	"fmt"
	"sort"
	"strings"

	"npss/internal/critpath"
	"npss/internal/flight"
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
func observe(plane string, status func() string) *wire.Message {
	var data []byte
	var err error
	switch plane {
	case "status":
		if status == nil {
			return errMsg("schooner: no status plane here")
		}
		data = []byte(status())
	case "metrics":
		data, err = trace.Export().EncodeJSON()
	case "series":
		// An empty Series when no sampler is installed: still mergeable.
		data, err = tseries.ActiveSnapshot().EncodeJSON()
	case "profile":
		// An empty profile when tracing is off.
		data = critpath.ActiveSnapshot().EncodeJSON()
	case "flight":
		data = []byte(flight.DumpString())
	default:
		return errMsg("schooner: unknown observe plane %q", plane)
	}
	if err != nil {
		return errMsg("schooner: encoding %s: %v", plane, err)
	}
	return &wire.Message{Kind: wire.KObserveOK, Data: data}
}

// Observe asks the component listening on addr (a "host:port", or a
// bare host for its Manager) for one introspection plane and returns
// the payload: text for "status" and "flight", JSON for "metrics",
// "series" and "profile" (trace.DecodeMetrics, tseries.DecodeSeries and
// critpath.DecodeProfile read it back).
func Observe(t Transport, from, addr, plane string) ([]byte, error) {
	if !strings.Contains(addr, ":") {
		addr += ":" + ManagerPort
	}
	resp, err := roundTrip(t, from, addr, &wire.Message{Kind: wire.KObserve, Name: plane}, rpcTimeout)
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KObserveOK {
		return nil, fmt.Errorf("schooner: %s query failed: %s", plane, resp.Err)
	}
	return resp.Data, nil
}

// Source is one component a cluster roll-up asks: the name it is
// reported under and the address Observe dials.
type Source struct{ Name, Addr string }

// ClusterStatus renders the cluster roll-up `schooner-manager -status`
// prints: the status report of the Manager at sources[0], then every
// source's metrics merged, its series merged window by window when any
// were sampled, and its critical-path profile when it recorded spans.
// A source that does not answer is reported once and left out, not
// fatal: a degraded cluster is exactly when the roll-up is wanted. With
// no sources there is no Manager to ask, and that is an error.
func ClusterStatus(t Transport, from string, sources []Source) (string, error) {
	if len(sources) == 0 {
		return "", fmt.Errorf("schooner: cluster status needs a Manager to ask")
	}
	status, err := Observe(t, from, sources[0].Addr, "status")
	if err != nil {
		return "", err
	}
	var (
		metrics               trace.MetricsSnapshot
		series                tseries.Series
		unreachable, profiles strings.Builder
	)
	for _, src := range sources {
		var data [3][]byte
		for i, plane := range []string{"metrics", "series", "profile"} {
			if data[i], err = Observe(t, from, src.Addr, plane); err != nil {
				break
			}
		}
		if err != nil {
			fmt.Fprintf(&unreachable, "(%s at %s unreachable: %v)\n", src.Name, src.Addr, err)
			continue
		}
		m, err := trace.DecodeMetrics(data[0])
		if err != nil {
			return "", fmt.Errorf("schooner: %s metrics: %w", src.Name, err)
		}
		metrics.Merge(m)
		s, err := tseries.DecodeSeries(data[1])
		if err != nil {
			return "", fmt.Errorf("schooner: %s series: %w", src.Name, err)
		}
		series.Merge(s)
		p, err := critpath.DecodeProfile(data[2])
		if err != nil {
			return "", fmt.Errorf("schooner: %s profile: %w", src.Name, err)
		}
		// Profiles describe one process's span forest, so they are
		// reported per source rather than merged.
		if p.Spans > 0 {
			fmt.Fprintf(&profiles, "[%s]\n%s\n", src.Name, p.Format())
		}
	}
	report := string(status) + "-- cluster metrics --\n" + unreachable.String() + metrics.Format()
	if len(series.Windows) > 0 {
		report += "-- cluster series --\n" + series.Format()
	}
	if profiles.Len() > 0 {
		report += "-- cluster profile --\n" + profiles.String()
	}
	return report, nil
}
