package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"npss/internal/flight"
	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/plane"
	"npss/internal/schooner"
	"npss/internal/trace"
	"npss/internal/uts"
)

// TestEveryPlaneEverywhere walks plane.Planes against a live cluster —
// a Manager on avs-sparc, a Server on sgi-lerc and one procedure
// process it spawned — with every plane holding state. Every plane
// answers over the wire on each component (a process, which has no
// status report, refuses exactly the planes that need one) and on its
// HTTP path. A structured plane's wire JSON decodes and re-encodes to
// the same bytes, its Prometheus body lints, and the roll-up gives it
// a section.
func TestEveryPlaneEverywhere(t *testing.T) {
	defer trace.Swap(trace.Swap(trace.NewSet()))
	defer flight.Swap(flight.Swap(flight.NewRecorder(256)))
	activateSampleSampler(t)
	trace.SetRecorder(trace.NewRecorder())
	defer trace.SetRecorder(nil)

	n := netsim.New()
	n.MustAddHost("avs-sparc", machine.SPARC)
	n.MustAddHost("sgi-lerc", machine.SGI)
	tr := schooner.NewSimTransport(n)
	reg := schooner.NewRegistry()
	spec := `prog("a" val double, "b" val double, "sum" res double)`
	reg.MustRegister(&schooner.Program{Path: "/npss/adder", Language: schooner.LangC,
		Build: func() (*schooner.Instance, error) {
			return schooner.NewInstance(&schooner.BoundProc{
				Spec: uts.MustParseProc("export add " + spec),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					return []uts.Value{uts.DoubleVal(in[0].F + in[1].F)}, nil
				},
			})
		}})
	mgr, err := schooner.StartManager(tr, "avs-sparc")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	srv, err := schooner.StartServer(tr, "sgi-lerc", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	c := &schooner.Client{Transport: tr, Host: "avs-sparc", ManagerHost: "avs-sparc"}
	defer c.Close()
	ln, err := c.ContactSchx("planes")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	if err := ln.Import(uts.MustParseProc("import add " + spec)); err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(2)); err != nil {
		t.Fatal(err)
	}

	ts, err := Start("127.0.0.1:0", Config{Status: srv.StatusReport})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	// checkStructured decodes a structured plane's wire JSON, requires
	// it to re-encode to the same bytes, and lints its exposition.
	checkStructured := func(p plane.Plane, where string, data []byte) {
		t.Helper()
		s, err := p.Decode(data)
		if err != nil {
			t.Fatalf("%s: %s JSON does not decode: %v", where, p.Name, err)
		}
		if again, err := s.EncodeJSON(); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: %s JSON re-encodes differently (%v):\n%s\nvs\n%s", where, p.Name, err, data, again)
		}
		var b strings.Builder
		if err := s.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		if err := Lint([]byte(b.String())); err != nil {
			t.Errorf("%s: %s exposition fails lint: %v\n%s", where, p.Name, err, b.String())
		}
	}

	components := []struct {
		name, addr string
		status     bool // has a status report
	}{
		{"manager", "avs-sparc", true},
		{"server", "sgi-lerc:" + schooner.ServerPort, true},
		{"process", "sgi-lerc:ephemeral-1", false},
	}
	for _, p := range plane.Planes {
		_, needsStatus := p.Answer(nil)
		for _, comp := range components {
			data, err := schooner.Observe(tr, "avs-sparc", comp.addr, p.Name)
			if !comp.status && needsStatus != nil {
				if err == nil || !strings.Contains(err.Error(), needsStatus.Error()) {
					t.Errorf("%s answered %s without a status report: %v", comp.name, p.Name, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s does not answer %s: %v", comp.name, p.Name, err)
				continue
			}
			if len(data) == 0 {
				t.Errorf("%s answered %s with nothing", comp.name, p.Name)
			}
			if p.Text == nil {
				checkStructured(p, comp.name, data)
			}
		}

		body, ctype := get(t, ts, p.Path)
		if p.Text != nil {
			if ctype != "text/plain; charset=utf-8" || len(body) == 0 {
				t.Errorf("GET %s: %q, %d bytes", p.Path, ctype, len(body))
			}
			continue
		}
		if err := Lint(body); err != nil {
			t.Errorf("GET %s fails lint: %v\n%s", p.Path, err, body)
		}
		js, ctype := get(t, ts, p.Path+"?format=json")
		if ctype != "application/json" {
			t.Errorf("GET %s?format=json: content type %q", p.Path, ctype)
		}
		checkStructured(p, "http", js)
	}

	report, err := schooner.ClusterStatus(tr, "avs-sparc", []schooner.Source{
		{Name: "manager", Addr: "avs-sparc"},
		{Name: "sgi-lerc", Addr: "sgi-lerc:" + schooner.ServerPort},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plane.Planes {
		if head := "-- cluster " + p.Name + " --\n"; p.Text == nil && !strings.Contains(report, head) {
			t.Errorf("roll-up has no %q section:\n%s", head, report)
		}
	}
}
