package daemon

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"npss/internal/schooner"
	"npss/internal/uts"
)

// freePort reserves a loopback TCP port and returns its address.
func freePort(t *testing.T) string { return freePortOn(t, "127.0.0.1") }

// freePortOn reserves a TCP port on ip and returns its address.
func freePortOn(t *testing.T, ip string) string {
	t.Helper()
	l, err := net.Listen("tcp", ip+":0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestRealDaemonProcesses builds the schooner-manager and
// schooner-server binaries and runs them as separate operating system
// processes, then drives an RPC through the live deployment — the
// closest this repository gets to the paper's actual multi-machine
// runs.
func TestRealDaemonProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real processes")
	}
	dir := t.TempDir()
	mgrBin := filepath.Join(dir, "schooner-manager")
	srvBin := filepath.Join(dir, "schooner-server")
	for bin, pkg := range map[string]string{
		mgrBin: "npss/cmd/schooner-manager",
		srvBin: "npss/cmd/schooner-server",
	} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	mgrAddr := freePort(t)
	srvAddr := freePort(t)
	hostTable := fmt.Sprintf("cray-lerc=cray-ymp@%s", srvAddr)

	srv := exec.Command(srvBin, "-host", "cray-lerc", "-listen", srvAddr, "-hosts", hostTable)
	srv.Stdout, srv.Stderr = os.Stderr, os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	mgr := exec.Command(mgrBin, "-host", "avs", "-listen", mgrAddr, "-hosts", hostTable)
	mgr.Stdout, mgr.Stderr = os.Stderr, os.Stderr
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		mgr.Process.Kill()
		mgr.Wait()
	}()

	// Wait for both daemons to listen.
	for _, addr := range []string{mgrAddr, srvAddr} {
		deadline := time.Now().Add(10 * time.Second)
		for {
			c, err := net.Dial("tcp", addr)
			if err == nil {
				c.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon on %s did not come up", addr)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// A client in this process, against the two daemons.
	hosts, err := ParseHosts(hostTable)
	if err != nil {
		t.Fatal(err)
	}
	tr := BuildTransport(hosts, "avs", mgrAddr, nil)
	client := &schooner.Client{Transport: tr, Host: "avs", ManagerHost: "avs"}
	ln, err := client.ContactSchx("integration")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	// The echo demo program registered by the server daemon.
	if err := ln.StartRemote("/npss/echo", "cray-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import echo prog("x" val double, "y" res double)`))
	out, err := ln.Call("echo", uts.DoubleVal(6.25))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].F != 6.25 {
		t.Errorf("echo across real processes = %g", out[0].F)
	}

	// The adapted TESS shaft file works across real processes too,
	// with the Cray's Fortran upper-casing in play.
	if err := ln.StartRemote("/npss/npss-shaft", "cray-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import setshaft prog(
		"ecom" val array[4] of double, "incom" val integer,
		"etur" val array[4] of double, "intur" val integer,
		"ecorr" res double)`))
	res, err := ln.Call("setshaft", uts.DoubleArray(0, 0, 0, 0), uts.MustInt(1),
		uts.DoubleArray(0, 0, 0, 0), uts.MustInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].F != 1.0 {
		t.Errorf("setshaft across real processes = %g", res[0].F)
	}
}

// repoRoot walks up from the package directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
