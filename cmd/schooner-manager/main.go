// Command schooner-manager runs the persistent Schooner Manager as a
// real TCP daemon, for deployments where every machine is a separate
// operating system process (the multi-process equivalent of the
// in-process simulated testbed).
//
// Example, emulating a two-machine deployment on one workstation:
//
//	schooner-manager -host avs-sparc -listen 127.0.0.1:7500 \
//	    -hosts "cray-lerc=cray-ymp@127.0.0.1:7501"
//	schooner-server -host cray-lerc -listen 127.0.0.1:7501 \
//	    -hosts "cray-lerc=cray-ymp@127.0.0.1:7501"
//
// The Manager is persistent: it serves any number of lines and
// simulation runs until interrupted.
//
// With -wal the Manager journals every name-database mutation into an
// append-only log under the given directory. After a crash, restarting
// with the same -wal plus -recover rebuilds the database from the
// journal and re-adopts the procedure processes that survived the
// outage. -checkpoint-interval additionally pulls stateful procedures'
// state into the journal on that cadence, so failover can restore them
// rather than losing their state.
//
// A running Manager can be introspected without stopping it:
//
//	schooner-manager -listen 127.0.0.1:7500 -status
//
// prints its live lines, the health monitor's view of the machines,
// and the trace counters, then exits. With -hosts the status query
// also rolls the Servers' metric snapshots — and, when the daemons
// run with -series-interval or tracing, their windowed time series and
// critical-path profiles — into a cluster-wide aggregate. Every plane
// is one observe request (schooner.Observe); a Server that does not
// answer is reported once. -telemetry :9100 serves the same data live
// over HTTP (/metrics, /statusz, /flightz, /seriesz, /profilez,
// /debug/pprof).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	"npss/internal/daemon"
	"npss/internal/flight"
	"npss/internal/logx"
	"npss/internal/schooner"
	"npss/internal/telemetry"
	"npss/internal/tseries"
	"npss/internal/wal"
)

func main() {
	host := flag.String("host", "avs-sparc", "logical machine name the Manager runs on")
	listen := flag.String("listen", "127.0.0.1:7500", "socket address to listen on")
	hostTable := flag.String("hosts", "", "server table: name=arch@ip:port[,...]")
	status := flag.Bool("status", false, "query the Manager at -listen for its status report and exit")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics, /statusz, /flightz, /seriesz, /profilez and pprof on this address")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	walDir := flag.String("wal", "", "directory for the control-plane write-ahead journal (empty = no durability)")
	doRecover := flag.Bool("recover", false, "rebuild the name database from the -wal journal and re-adopt surviving processes before serving")
	ckInterval := flag.Duration("checkpoint-interval", 0, "cadence for pulling stateful-procedure checkpoints into the journal (0 = off)")
	seriesInterval := flag.Duration("series-interval", 0, "sample windowed metric series on this cadence, served at /seriesz, on the observe RPC's series plane, and in -status (0 = off)")
	flag.Parse()
	if err := logx.SetLevelName(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	lg := logx.For("schooner-manager", *host)

	if *status {
		report, err := clusterStatus(*host, *listen, *hostTable)
		if err != nil {
			lg.Error("status query failed", "err", err)
			os.Exit(1)
		}
		fmt.Print(report)
		return
	}

	// A daemon crash must ship the flight recorder with it: the ring
	// holds what every component did just before the panic.
	defer flight.DumpOnPanic(os.Stderr)

	hosts, err := daemon.ParseHosts(*hostTable)
	if err != nil {
		lg.Error("bad -hosts table", "err", err)
		os.Exit(1)
	}
	tr := daemon.BuildTransport(hosts, *host, *listen, map[string]string{
		*host + ":schx-manager": *listen,
	})
	var cfg schooner.ManagerConfig
	if *walDir != "" {
		backend, err := wal.NewFileBackend(*walDir)
		if err != nil {
			lg.Error("cannot open -wal directory", "dir", *walDir, "err", err)
			os.Exit(1)
		}
		jlog, err := wal.Open(backend, wal.Options{})
		if err != nil {
			lg.Error("cannot open journal", "dir", *walDir, "err", err)
			os.Exit(1)
		}
		cfg.Journal = jlog
		cfg.Recover = *doRecover
		cfg.CheckpointInterval = *ckInterval
	} else if *doRecover {
		lg.Error("-recover requires -wal")
		os.Exit(1)
	}
	mgr, err := schooner.StartManagerConfig(tr, *host, cfg)
	if err != nil {
		lg.Error("manager start failed", "err", err)
		os.Exit(1)
	}
	if *seriesInterval > 0 {
		sampler := tseries.Start(tseries.Config{Interval: *seriesInterval})
		tseries.SetActive(sampler)
		defer func() {
			tseries.SetActive(nil)
			sampler.Stop()
		}()
		lg.Info("series sampling", "interval", *seriesInterval)
	}
	lg.Info("serving", "listen", *listen, "endpoint", *host+":schx-manager",
		"wal", *walDir, "recovered", *doRecover)

	if *telemetryAddr != "" {
		ts, err := telemetry.Start(*telemetryAddr, telemetry.Config{
			Status: mgr.StatusReport,
		})
		if err != nil {
			lg.Error("telemetry listener failed", "err", err)
			os.Exit(1)
		}
		defer ts.Close()
		lg.Info("telemetry listening", "addr", ts.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	lg.Info("shutting down")
	mgr.Stop()
}

// clusterStatus asks the Manager daemon at listen, and every Server of
// the host table, for the cluster roll-up.
func clusterStatus(host, listen, hostTable string) (string, error) {
	var hosts []daemon.HostSpec
	if hostTable != "" {
		var err error
		if hosts, err = daemon.ParseHosts(hostTable); err != nil {
			return "", err
		}
	}
	// Logical addresses: the transport's table maps them to sockets.
	sources := []schooner.Source{{Name: "manager", Addr: host}}
	for _, h := range hosts {
		sources = append(sources, schooner.Source{Name: h.Name, Addr: h.Name + ":" + schooner.ServerPort})
	}
	return schooner.ClusterStatus(daemon.BuildTransport(hosts, host, listen, nil), host, sources)
}
