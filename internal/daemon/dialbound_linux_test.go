package daemon

import (
	"fmt"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"npss/internal/machine"
	"npss/internal/schooner"
)

// blackHole returns the address of a loopback socket that listens with
// a backlog of 0 and never accepts. One connect fills its queue, which
// blackHole makes; every later connect hangs until its dialer gives up.
func blackHole(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	filler, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { filler.Close() })
	return addr
}

// TestClusterStatusDialBound points a Server entry of the -status
// roll-up at a socket whose connects hang. The roll-up must report that
// Server unreachable within the transport's dial bound (schooner's
// rpcTimeout, 3 s) plus slack, not wait out the OS connect timeout.
func TestClusterStatusDialBound(t *testing.T) {
	d := deploy(t, "cray=cray-ymp@"+freePort(t))
	hosts := append(d.hosts, HostSpec{Name: "hung", Arch: machine.SPARC, ServerAddr: blackHole(t)})
	tr := BuildTransport(hosts, "avs", d.mgrAddr, nil)
	sources := []schooner.Source{{Name: "manager", Addr: "avs"}, {Name: "hung", Addr: "hung:" + schooner.ServerPort}}

	type result struct {
		report string
		err    error
	}
	done := make(chan result, 1)
	go func() {
		report, err := schooner.ClusterStatus(tr, "avs", sources)
		done <- result{report, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !strings.Contains(r.report, "(hung at hung:"+schooner.ServerPort+" unreachable: ") {
			t.Errorf("report does not name the hung Server unreachable:\n%s", r.report)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cluster status still dialing the hung Server after 5 s")
	}
}
