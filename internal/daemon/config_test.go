package daemon

import (
	"testing"

	"npss/internal/machine"
	"npss/internal/uts"
)

func TestParseHosts(t *testing.T) {
	hosts, err := ParseHosts("cray-lerc=cray-ymp@127.0.0.1:7501, rs6000=rs6000@127.0.0.1:7502")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2 {
		t.Fatalf("hosts = %+v", hosts)
	}
	if hosts[0].Name != "cray-lerc" || hosts[0].Arch != machine.CrayYMP || hosts[0].ServerAddr != "127.0.0.1:7501" {
		t.Errorf("host 0 = %+v", hosts[0])
	}
	if hosts[1].Arch != machine.RS6000 {
		t.Errorf("host 1 = %+v", hosts[1])
	}
}

func TestParseHostsErrors(t *testing.T) {
	cases := []string{
		"",
		"noequals",
		"a=nochip",
		"a=sparc",             // missing @addr
		"=sparc@127.0.0.1:1",  // empty name
		"a=pdp11@127.0.0.1:1", // unknown arch
		"a=sparc@x,a=sparc@y", // duplicate
	}
	for _, c := range cases {
		if _, err := ParseHosts(c); err == nil {
			t.Errorf("ParseHosts(%q) accepted", c)
		}
	}
}

// TestDaemonDeploymentEndToEnd wires a Manager and a Server through
// transports of their own, the way the real daemons do across
// processes, and runs an RPC through the whole stack.
func TestDaemonDeploymentEndToEnd(t *testing.T) {
	d := deploy(t, "cray2=cray-ymp@"+freePort(t))
	ln, err := d.client().ContactSchx("daemon-test")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/echo", "cray2"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(echoImport))
	out, err := ln.Call("echo", uts.DoubleVal(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].F != 2.5 {
		t.Errorf("echo = %g", out[0].F)
	}
}
