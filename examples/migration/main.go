// Migration: moving a remote procedure between machines during a long
// computation — the section 4.2 feature for avoiding scheduled
// downtimes ("moving the computation should be an option so that, for
// example, scheduled downtimes can be avoided").
//
// A long engine transient runs with the low-speed-shaft computation on
// the Cray. Partway through, the Cray approaches its maintenance
// window: the shaft procedure is moved to the RS/6000 mid-run without
// stopping the simulation. The stale client cache recovers lazily (the
// next call to the old address fails and automatically re-asks the
// Manager), and the trajectory continues seamlessly — verified against
// an uninterrupted local run.
//
// Run with: go run ./examples/migration
package main

import (
	"fmt"
	"log"
	"math"

	"npss/internal/engine"
	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/npssproc"
	"npss/internal/schooner"
	"npss/internal/solver"
	"npss/internal/trace"
)

func main() {
	// --- Deployment.
	net := netsim.New()
	net.MustAddHost("workstation", machine.SPARC)
	net.MustAddHost("cray", machine.CrayYMP)
	net.MustAddHost("rs6000", machine.RS6000)
	tr := schooner.NewSimTransport(net)
	reg := schooner.NewRegistry()
	if err := npssproc.RegisterAll(reg); err != nil {
		log.Fatal(err)
	}
	mgr, err := schooner.StartManager(tr, "workstation")
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Stop()
	for _, h := range []string{"cray", "rs6000"} {
		srv, err := schooner.StartServer(tr, h, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Stop()
	}

	// --- The module's line: shaft computation on the Cray.
	client := &schooner.Client{Transport: tr, Host: "workstation", ManagerHost: "workstation"}
	line, err := client.ContactSchx("low speed shaft")
	if err != nil {
		log.Fatal(err)
	}
	defer line.IQuit()
	if err := line.StartRemote(npssproc.ShaftPath, "cray"); err != nil {
		log.Fatal(err)
	}
	if err := npssproc.RegisterImports(line); err != nil {
		log.Fatal(err)
	}
	ecorr, err := npssproc.Setshaft(line, []float64{0, 0, 0, 0}, 1, []float64{0, 0, 0, 0}, 1)
	if err != nil {
		log.Fatal(err)
	}

	// --- The engine, with the low spool's shaft hook remote.
	eng, err := engine.NewF100(engine.DefaultF100())
	if err != nil {
		log.Fatal(err)
	}
	eng.Hooks.LowShaft = func(qTur, qCom, inertia, omega float64) (float64, error) {
		return npssproc.Shaft(line,
			[]float64{qCom * omega, 0, 0, 0}, 1,
			[]float64{qTur * omega, 0, 0, 0}, 1,
			ecorr, omega, inertia)
	}
	throttle, _ := engine.Step(eng.DesignFuel, 0.88*eng.DesignFuel, 0.1, 0.4)
	eng.Fuel = throttle

	// The uninterrupted local baseline.
	base, err := engine.NewF100(engine.DefaultF100())
	if err != nil {
		log.Fatal(err)
	}
	base.Fuel = throttle
	xBase := append([]float64(nil), base.DesignState...)
	if _, _, err := base.Balance(xBase, engine.SteadyOptions{}); err != nil {
		log.Fatal(err)
	}
	if _, err := base.Transient(xBase, engine.TransientOptions{Method: solver.ModifiedEuler, Duration: 1.0}); err != nil {
		log.Fatal(err)
	}

	// --- The migrating run.
	x := append([]float64(nil), eng.DesignState...)
	if _, _, err := eng.Balance(x, engine.SteadyOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("balanced; transient begins with the shaft computation on the cray")

	moved := false
	_, err = eng.Transient(x, engine.TransientOptions{
		Method: solver.ModifiedEuler, Duration: 1.0,
		Observe: func(t float64, o engine.Outputs) {
			if !moved && t >= 0.5 {
				moved = true
				fmt.Printf("t=%.2fs: cray maintenance window approaching — moving the shaft procedure\n", t)
				if err := line.Move("shaft", "rs6000", false); err != nil {
					log.Fatal(err)
				}
				fmt.Println("          moved to rs6000; next call recovers through the Manager")
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- Verification.
	worst := 0.0
	for i := range x {
		d := math.Abs(x[i]-xBase[i]) / math.Max(math.Abs(xBase[i]), 1)
		if d > worst {
			worst = d
		}
	}
	fmt.Printf("\ntrajectory deviation from the uninterrupted local run: %.2e\n", worst)
	fmt.Printf("stale-cache recoveries observed: %d\n", trace.Get("schooner.client.stale"))
	if worst > 1e-9 {
		log.Fatal("migration perturbed the simulation")
	}
	fmt.Println("the computation moved mid-run without disturbing the simulation.")
}
