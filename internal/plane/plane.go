// Package plane declares the observability planes once. Every
// component answers the same planes, and the three consumers read them
// from Planes: schooner's wire.KObserve answerer (the plane's Name),
// telemetry's HTTP listener (its Path) and schooner.ClusterStatus's
// roll-up (its snapshot type). Adding a plane is adding a row.
//
// A text plane (status, flight) is text everywhere. A structured plane
// (metrics, series, profile) has a snapshot type that answers the wire
// in JSON, an HTTP scrape in Prometheus text (JSON with ?format=json)
// and the roll-up in its Format; the roll-up merges it across sources
// when the type has a Merge, and lists it per source otherwise.
package plane

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"npss/internal/critpath"
	"npss/internal/flight"
	"npss/internal/trace"
	"npss/internal/tseries"
)

// Snapshot is a structured plane's payload.
type Snapshot interface {
	EncodeJSON() ([]byte, error)
	WriteProm(io.Writer) error
	Format() string
}

// Plane is one row of the table. A text plane sets Text; a structured
// plane sets the other func fields (Merge only when its type merges).
type Plane struct {
	Name string // the plane a wire.KObserve request names
	Path string // the telemetry HTTP path

	// Text renders a text plane given the component's status report,
	// which is nil on a component without one.
	Text func(status func() string) (string, error)

	// Snapshot reads the plane's live state from the process globals.
	Snapshot func() Snapshot
	// New returns an empty snapshot of the plane's type: what Decode
	// fills and what a merge starts from.
	New func() Snapshot
	// Merge folds from into into; nil lists the plane per source.
	Merge func(into, from Snapshot)
	// Quiet reports a snapshot with nothing to show; the roll-up
	// leaves it out.
	Quiet func(Snapshot) bool
}

// Planes is the table, in the order a component's planes are asked.
var Planes = []Plane{
	{Name: "status", Path: "/statusz", Text: func(status func() string) (string, error) {
		if status == nil {
			return "", errors.New("no status plane here")
		}
		return status(), nil
	}},
	merging("metrics", "/metrics", func() *trace.MetricsSnapshot {
		m := trace.Export()
		return &m
	}, func(m *trace.MetricsSnapshot) bool { return len(m.Counters)+len(m.Hists) == 0 }),
	// An empty Series when no sampler is installed: still mergeable.
	merging("series", "/seriesz", func() *tseries.Series {
		s := tseries.ActiveSnapshot()
		return &s
	}, func(s *tseries.Series) bool { return len(s.Windows) == 0 }),
	// Profiles describe one process's span forest, so they are listed
	// per source rather than merged; an empty one when tracing is off.
	structured("profile", "/profilez", critpath.ActiveSnapshot,
		func(p *critpath.Profile) bool { return p.Spans == 0 }),
	{Name: "flight", Path: "/flightz", Text: func(func() string) (string, error) {
		return flight.DumpString(), nil
	}},
}

// structured declares a structured plane whose snapshot type is *T.
func structured[T any, P interface {
	*T
	Snapshot
}](name, path string, snap func() P, quiet func(P) bool) Plane {
	return Plane{
		Name: name, Path: path,
		Snapshot: func() Snapshot { return snap() },
		New:      func() Snapshot { return P(new(T)) },
		Quiet:    func(s Snapshot) bool { return quiet(s.(P)) },
	}
}

// merging declares a structured plane whose snapshots merge.
func merging[T any, P interface {
	*T
	Snapshot
	Merge(T)
}](name, path string, snap func() P, quiet func(P) bool) Plane {
	p := structured(name, path, snap, quiet)
	p.Merge = func(into, from Snapshot) { into.(P).Merge(*from.(P)) }
	return p
}

// Lookup returns the plane called name.
func Lookup(name string) (Plane, bool) {
	for _, p := range Planes {
		if p.Name == name {
			return p, true
		}
	}
	return Plane{}, false
}

// Answer renders the plane's wire payload: a text plane's text, a
// structured plane's JSON.
func (p Plane) Answer(status func() string) ([]byte, error) {
	if p.Text != nil {
		s, err := p.Text(status)
		return []byte(s), err
	}
	data, err := p.Snapshot().EncodeJSON()
	if err != nil {
		return nil, fmt.Errorf("encoding %s: %w", p.Name, err)
	}
	return data, nil
}

// Decode parses a structured plane's wire payload.
func (p Plane) Decode(data []byte) (Snapshot, error) {
	s := p.New()
	return s, json.Unmarshal(data, s)
}
