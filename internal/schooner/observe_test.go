package schooner

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"npss/internal/flight"
	"npss/internal/netsim"
	"npss/internal/trace"
	"npss/internal/tseries"
	"npss/internal/uts"
	"npss/internal/vclock"
	"npss/internal/wire"
)

var updateObserve = flag.Bool("update-observe", false,
	"rewrite testdata/observe.golden from this run")

// observePlanes are the introspection planes every component is asked
// for.
var observePlanes = []string{"status", "metrics", "series", "profile", "flight"}

// quietTransport dials without counting dials, so asking a component
// leaves nothing in the metrics the next answer carries: the answers
// describe the calls, not the order they were asked in.
type quietTransport struct{ *SimTransport }

func (q quietTransport) Dial(from, addr string) (wire.Conn, error) {
	h, err := q.Net.Host(from)
	if err != nil {
		return nil, err
	}
	return h.Dial(addr)
}

// flightTime masks the wall-clock stamp of each flight event line.
var flightTime = regexp.MustCompile(`(?m)^(#\d+) \d\d:\d\d:\d\d\.\d{6} `)

// observeSession stands up a Manager on avs-sparc and Servers on rs6000
// and sgi-lerc on a virtual clock, with every observability plane on,
// makes a few calls into one procedure process on sgi-lerc, takes down
// the hosts named, and renders every component's answer on every plane
// plus the cluster roll-up.
//
// Unlike the other virtual-clock sessions it cannot run in parallel:
// the answers are the process globals it swaps in — the metric set
// (trace.Swap), the flight recorder (flight.Swap), the span recorder
// (trace.SetRecorder) and the series sampler (tseries.SetActive).
func observeSession(t *testing.T, down ...string) string {
	v := vclock.NewVirtual()
	prevSet := trace.Swap(trace.NewSet())
	prevFlight := flight.Swap(flight.NewRecorder(1024))
	trace.SetRecorder(trace.NewRecorderClock(v.Now))
	sampler := tseries.Start(tseries.Config{Interval: 2 * time.Millisecond, Clock: v})
	tseries.SetActive(sampler)

	n := netsim.New()
	n.SetClock(v)
	n.SetTimeScale(1.0)
	hosts := ieeeHosts()
	for _, h := range []string{"avs-sparc", "rs6000", "sgi-lerc"} {
		n.MustAddHost(h, hosts[h])
	}
	tr := quietTransport{NewSimTransport(n)}
	reg := NewRegistry()
	reg.MustRegister(adderProgram("/npss/adder"))
	mgr, err := StartManager(tr, "avs-sparc")
	if err != nil {
		t.Fatal(err)
	}
	servers := map[string]*Server{}
	for _, h := range []string{"rs6000", "sgi-lerc"} {
		if servers[h], err = StartServer(tr, h, reg); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		mgr.Stop()
		for _, s := range servers {
			s.Stop()
		}
		tseries.SetActive(nil)
		trace.SetRecorder(nil)
		if err := v.Stop(); err != nil {
			t.Error(err)
		}
		flight.Swap(prevFlight)
		trace.Swap(prevSet)
	}()

	c := &Client{Transport: tr, Host: "avs-sparc", ManagerHost: "avs-sparc"}
	defer c.Close()
	ln, err := c.ContactSchx("observe")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	if err := ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := ln.Call("add", uts.DoubleVal(float64(i)), uts.DoubleVal(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Freeze the series and stop the network's clock: what follows is
	// asking, not calling, and what a question costs on the wire must
	// not leak into the answers.
	sampler.Stop()
	n.SetTimeScale(0)
	for _, h := range down {
		n.SetHostDown(h, true)
	}

	servers["sgi-lerc"].mu.Lock()
	var procAddr string
	for addr := range servers["sgi-lerc"].processes {
		procAddr = addr
	}
	servers["sgi-lerc"].mu.Unlock()

	var b strings.Builder
	for _, src := range []Source{
		{"manager", "avs-sparc"},
		{"server rs6000", "rs6000:" + ServerPort},
		{"server sgi-lerc", "sgi-lerc:" + ServerPort},
		{"process", procAddr},
	} {
		for _, plane := range observePlanes {
			fmt.Fprintf(&b, "-- %s %s --\n", src.Name, plane)
			data, err := Observe(tr, "avs-sparc", src.Addr, plane)
			if err != nil {
				b.WriteString("(no answer)\n")
				continue
			}
			out := flightTime.ReplaceAllString(string(data), "$1 <time> ")
			b.WriteString(out)
			if !strings.HasSuffix(out, "\n") {
				b.WriteByte('\n')
			}
		}
	}
	names := make([]string, 0, len(servers))
	for h := range servers {
		names = append(names, h)
	}
	sort.Strings(names)
	for _, h := range names {
		fmt.Fprintf(&b, "-- server %s statusz --\n%s", h, servers[h].StatusReport())
	}
	report, err := ClusterStatus(tr, "avs-sparc", []Source{
		{"manager", "avs-sparc"},
		{"rs6000", "rs6000:" + ServerPort},
		{"sgi-lerc", "sgi-lerc:" + ServerPort},
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "-- roll-up --\n%s", report)
	if err := ln.IQuit(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestObserveGolden asks a Manager, both Servers and a procedure
// process for every plane, with the cluster whole and with one Server
// down, and compares the answers and the roll-up byte for byte against
// testdata/observe.golden. The golden was recorded while each plane
// still had a request kind of its own; since they became one observe
// request, the only differences are two fixes: a Server's /statusz now
// says what its status answer says, and a Server that does not answer
// is reported once in the roll-up instead of once per plane.
func TestObserveGolden(t *testing.T) {
	got := "== all up ==\n" + observeSession(t) +
		"== rs6000 down ==\n" + observeSession(t, "rs6000")
	const golden = "testdata/observe.golden"
	if *updateObserve {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("observe answers differ from %s\n%s", golden, firstDiff(string(want), got))
	}
}

// TestObservePlaneErrors: an unknown plane is answered with an error
// that names it, a component without a status report refuses the
// status plane, and a roll-up with no source to ask is an error, not a
// panic.
func TestObservePlaneErrors(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	for _, addr := range []string{"avs-sparc", "rs6000:" + ServerPort} {
		_, err := Observe(d.tr, "sgi-lerc", addr, "bogus")
		if err == nil || !strings.Contains(err.Error(), `unknown observe plane "bogus"`) {
			t.Errorf("%s answered the bogus plane with %v", addr, err)
		}
	}
	if resp := observe("status", nil); resp.Kind != wire.KError {
		t.Errorf("status without a report answered %v", resp.Kind)
	}
	if report, err := ClusterStatus(d.tr, "sgi-lerc", nil); err == nil {
		t.Errorf("a roll-up of no sources answered %q", report)
	}
}
