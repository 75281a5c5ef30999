// Command schooner-server runs one machine's Schooner Server as a real
// TCP daemon: it instantiates procedure files as processes when the
// Manager asks. There is one Server per machine in a deployment.
//
// The server's registry holds the four adapted TESS procedure files
// (npss-shaft, npss-duct, npss-comb, npss-nozl); -programs selects
// additional demo sets. -telemetry :9101 serves live /metrics,
// /statusz, /flightz, /seriesz, /profilez and pprof endpoints; the same
// planes answer the observe RPC that `schooner-manager -status` rolls up.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	"npss/internal/daemon"
	"npss/internal/flight"
	"npss/internal/logx"
	"npss/internal/npssproc"
	"npss/internal/schooner"
	"npss/internal/telemetry"
	"npss/internal/tseries"
	"npss/internal/uts"
)

func main() {
	host := flag.String("host", "", "logical machine name this Server serves (must appear in -hosts)")
	listen := flag.String("listen", "", "socket address to listen on (must match this host's -hosts entry)")
	hostTable := flag.String("hosts", "", "server table: name=arch@ip:port[,...]")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics, /statusz, /flightz, /seriesz, /profilez and pprof on this address")
	seriesInterval := flag.Duration("series-interval", 0, "sample windowed metric series on this cadence, served at /seriesz and on the observe RPC's series plane (0 = off)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.Parse()
	if err := logx.SetLevelName(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	lg := logx.For("schooner-server", *host)
	if *host == "" || *listen == "" {
		fmt.Fprintln(os.Stderr, "schooner-server: -host and -listen are required")
		os.Exit(2)
	}

	// A daemon crash must ship the flight recorder with it: the ring
	// holds what every component did just before the panic.
	defer flight.DumpOnPanic(os.Stderr)

	hosts, err := daemon.ParseHosts(*hostTable)
	if err != nil {
		lg.Error("bad -hosts table", "err", err)
		os.Exit(1)
	}
	tr := daemon.BuildTransport(hosts, "", "", map[string]string{
		*host + ":" + schooner.ServerPort: *listen,
	})

	reg := schooner.NewRegistry()
	if err := npssproc.RegisterAll(reg); err != nil {
		lg.Error("program registration failed", "err", err)
		os.Exit(1)
	}
	// A demo echo procedure for connectivity checks.
	reg.MustRegister(&schooner.Program{
		Path:     "/npss/echo",
		Language: schooner.LangC,
		Build: func() (*schooner.Instance, error) {
			p := &schooner.BoundProc{
				Spec: uts.MustParseProc(`export echo prog("x" val double, "y" res double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					return []uts.Value{uts.DoubleVal(in[0].F)}, nil
				},
			}
			return schooner.NewInstance(p)
		},
	})

	srv, err := schooner.StartServer(tr, *host, reg)
	if err != nil {
		lg.Error("server start failed", "err", err)
		os.Exit(1)
	}
	lg.Info("serving", "listen", *listen, "programs", fmt.Sprint(reg.Paths()))
	if *seriesInterval > 0 {
		sampler := tseries.Start(tseries.Config{Interval: *seriesInterval})
		tseries.SetActive(sampler)
		defer func() {
			tseries.SetActive(nil)
			sampler.Stop()
		}()
		lg.Info("series sampling", "interval", *seriesInterval)
	}

	if *telemetryAddr != "" {
		ts, err := telemetry.Start(*telemetryAddr, telemetry.Config{Status: srv.StatusReport})
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
	srv.Stop()
}
