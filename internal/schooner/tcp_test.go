package schooner

import (
	"testing"

	"npss/internal/machine"
	"npss/internal/uts"
)

// TestTCPTransportEndToEnd runs the full Manager/Server/client stack
// over real TCP sockets on the loopback interface — the deployment
// shape the cmd/schooner-* daemons use.
func TestTCPTransportEndToEnd(t *testing.T) {
	tr := NewTCPTransport(map[string]*machine.Arch{
		"workstation": machine.SPARC,
		"cray":        machine.CrayYMP,
	})
	if got := tr.Hosts(); len(got) != 2 || got[0] != "cray" {
		t.Errorf("Hosts = %v", got)
	}
	reg := NewRegistry()
	reg.MustRegister(adderProgram("/npss/adder"))

	mgr, err := StartManager(tr, "workstation")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	srv, err := StartServer(tr, "cray", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	c := &Client{Transport: tr, Host: "workstation", ManagerHost: "workstation"}
	ln, err := c.ContactSchx("tcp-module")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "cray"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	out, err := ln.Call("add", uts.DoubleVal(40), uts.DoubleVal(2))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].F != 42 {
		t.Errorf("add over TCP = %v", out[0].F)
	}
}

func TestTCPTransportErrors(t *testing.T) {
	tr := NewTCPTransport(map[string]*machine.Arch{"h": machine.SPARC})
	if _, err := tr.Listen("ghost", ""); err == nil {
		t.Error("listen on unknown host succeeded")
	}
	if _, err := tr.Dial("h", "h:nothing"); err == nil {
		t.Error("dial to unregistered name succeeded")
	}
	if _, err := tr.HostArch("ghost"); err == nil {
		t.Error("arch of unknown host resolved")
	}
	a, err := tr.HostArch("h")
	if err != nil || a != machine.SPARC {
		t.Errorf("HostArch = %v, %v", a, err)
	}
	l, err := tr.Listen("h", "p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("h", "p"); err == nil {
		t.Error("duplicate logical port accepted")
	}
	l.Close()
	if _, err := tr.Listen("h", "p"); err != nil {
		t.Errorf("relisten after close: %v", err)
	}
}
