package schooner

import (
	"fmt"
	"sort"
	"strings"

	"npss/internal/critpath"
	"npss/internal/trace"
	"npss/internal/tseries"
	"npss/internal/wire"
)

// StatusReport renders the Manager's plain-text introspection dump:
// live lines, the health monitor's view of the machines, and the
// global trace counters and latency histograms. It is what a KStatus
// request answers with (`schooner-manager -status` on a deployment,
// or QueryStatus in-process).
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

// metricsReply builds the KMetricsOK answer: the process's current
// global metric set, JSON-encoded for mergeable transport.
func metricsReply() *wire.Message {
	data, err := trace.Export().EncodeJSON()
	if err != nil {
		return errMsg("schooner: encoding metrics: %v", err)
	}
	return &wire.Message{Kind: wire.KMetricsOK, Data: data}
}

// seriesReply builds the KSeriesOK answer: the process's active
// sampler's windowed series (an empty Series when no sampler is
// installed — still a valid, mergeable reply).
func seriesReply() *wire.Message {
	data, err := tseries.ActiveSnapshot().EncodeJSON()
	if err != nil {
		return errMsg("schooner: encoding series: %v", err)
	}
	return &wire.Message{Kind: wire.KSeriesOK, Data: data}
}

// profileReply builds the KProfileOK answer: the critical-path
// attribution of the process's live span recorder (an empty profile
// when tracing is off — still a valid reply).
func profileReply() *wire.Message {
	return &wire.Message{Kind: wire.KProfileOK, Data: critpath.ActiveSnapshot().EncodeJSON()}
}

// query asks the component listening on addr (a "host:port", or a bare
// host for its Manager) one introspection question and returns the
// payload of the answer; ok is the reply kind that carries it.
func query(t Transport, fromHost, addr string, kind, ok wire.Kind, what string) ([]byte, error) {
	if !strings.Contains(addr, ":") {
		addr += ":" + ManagerPort
	}
	resp, err := roundTrip(t, fromHost, addr, &wire.Message{Kind: kind}, rpcTimeout)
	if err != nil {
		return nil, err
	}
	if resp.Kind != ok {
		return nil, fmt.Errorf("schooner: %s query failed: %s", what, resp.Err)
	}
	return resp.Data, nil
}

// QueryStatus asks the Manager on managerHost for its status report
// over the given transport — the in-process equivalent of the
// schooner-manager -status query.
func QueryStatus(t Transport, fromHost, managerHost string) (string, error) {
	data, err := query(t, fromHost, managerHost, wire.KStatus, wire.KStatusOK, "status")
	return string(data), err
}

// QueryProfile asks the component listening on addr (a Manager's
// "host:port" or bare Manager host) for its critical-path attribution
// profile.
func QueryProfile(t Transport, fromHost, addr string) (*critpath.Profile, error) {
	data, err := query(t, fromHost, addr, wire.KProfile, wire.KProfileOK, "profile")
	if err != nil {
		return nil, err
	}
	return critpath.DecodeProfile(data)
}

// QuerySeries asks the component listening on addr (a Manager's
// "host:port" or bare Manager host) for its windowed time-series
// snapshot. Series are mergeable: callers roll several components'
// series into the cluster-wide view with Series.Merge.
func QuerySeries(t Transport, fromHost, addr string) (tseries.Series, error) {
	data, err := query(t, fromHost, addr, wire.KSeries, wire.KSeriesOK, "series")
	if err != nil {
		return tseries.Series{}, err
	}
	return tseries.DecodeSeries(data)
}

// QueryMetrics asks the component listening on addr (a Manager's
// "host:port" or bare Manager host) for its live metric snapshot.
// The snapshot is mergeable: callers roll several components'
// snapshots into a cluster-wide view with MetricsSnapshot.Merge.
func QueryMetrics(t Transport, fromHost, addr string) (trace.MetricsSnapshot, error) {
	data, err := query(t, fromHost, addr, wire.KMetrics, wire.KMetricsOK, "metrics")
	if err != nil {
		return trace.MetricsSnapshot{}, err
	}
	return trace.DecodeMetrics(data)
}

// QueryFlight asks the component listening on addr (a Manager's
// "host:port" or bare Manager host) for its flight-recorder dump.
func QueryFlight(t Transport, fromHost, addr string) (string, error) {
	data, err := query(t, fromHost, addr, wire.KFlightDump, wire.KFlightDumpOK, "flight")
	return string(data), err
}
