// Package daemon holds the shared configuration parsing of the
// schooner-manager and schooner-server daemons: the host table mapping
// logical machine names to simulated architectures and socket
// addresses.
package daemon

import (
	"fmt"
	"strings"

	"npss/internal/machine"
	"npss/internal/schooner"
)

// HostSpec describes one machine of a daemon deployment.
type HostSpec struct {
	Name string // logical machine name ("cray-lerc")
	Arch *machine.Arch
	// ServerAddr is the socket address of the machine's Server daemon.
	ServerAddr string
}

// ParseHosts parses the -hosts flag:
//
//	name=arch@ip:port[,name=arch@ip:port...]
//
// e.g. "cray-lerc=cray-ymp@127.0.0.1:7501,rs6000=rs6000@127.0.0.1:7502".
func ParseHosts(s string) ([]HostSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("daemon: empty host table")
	}
	var out []HostSpec
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		nameRest := strings.SplitN(part, "=", 2)
		if len(nameRest) != 2 || nameRest[0] == "" {
			return nil, fmt.Errorf("daemon: host entry %q not of form name=arch@ip:port", part)
		}
		archAddr := strings.SplitN(nameRest[1], "@", 2)
		if len(archAddr) != 2 {
			return nil, fmt.Errorf("daemon: host entry %q not of form name=arch@ip:port", part)
		}
		arch, err := machine.ByName(archAddr[0])
		if err != nil {
			return nil, err
		}
		if seen[nameRest[0]] {
			return nil, fmt.Errorf("daemon: duplicate host %q", nameRest[0])
		}
		seen[nameRest[0]] = true
		out = append(out, HostSpec{Name: nameRest[0], Arch: arch, ServerAddr: archAddr[1]})
	}
	return out, nil
}

// BuildTransport assembles the transport every daemon role uses:
// managerHost/managerAddr locate the Manager and the host table locates
// every Server, whose IP is also where that machine's procedure
// processes listen. bindSelf adds bind entries so this process can
// listen on its own well-known endpoints.
func BuildTransport(hosts []HostSpec, managerHost, managerAddr string, bindSelf map[string]string) *schooner.TCPTransport {
	archs := make(map[string]*machine.Arch, len(hosts)+1)
	addrs := make(map[string]string, len(hosts)+1)
	for _, h := range hosts {
		archs[h.Name] = h.Arch
		addrs[h.Name+":"+schooner.ServerPort] = h.ServerAddr
	}
	if managerHost != "" {
		if _, ok := archs[managerHost]; !ok {
			archs[managerHost] = machine.SPARC
		}
		addrs[managerHost+":"+schooner.ManagerPort] = managerAddr
	}
	return schooner.NewConfiguredTCPTransport(archs, addrs, bindSelf)
}
