// Command tess runs the Turbofan Engine System Simulator from the
// command line: a steady-state balance at the requested operating
// condition followed by an engine transient, printing the trajectory.
//
// Examples:
//
//	tess                                   # design point, 1 s transient
//	tess -fuel 1.2 -transient 2 -method gear
//	tess -alt 10000 -mach 0.9 -fuel 0.75   # cruise
//	tess -fuel-schedule "0:1.48,0.2:1.2"   # throttle chop
//	tess -csv > run.csv                    # trajectory for plotting
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"npss/internal/cmap"
	"npss/internal/engine"
	"npss/internal/logx"
	"npss/internal/solver"
	"npss/internal/trace"
)

func main() {
	fuel := flag.Float64("fuel", 0, "fuel flow in kg/s (0 = design fuel)")
	fuelSched := flag.String("fuel-schedule", "", "fuel schedule t:v,t:v (overrides -fuel)")
	steady := flag.String("steady", "newton-raphson", "steady-state method: newton-raphson or rk4")
	method := flag.String("method", "modified-euler", "transient method: modified-euler, rk4, adams, gear")
	transient := flag.Float64("transient", 1.0, "transient length, s")
	step := flag.Float64("step", 5e-4, "integration step, s")
	alt := flag.Float64("alt", 0, "altitude, m")
	mach := flag.Float64("mach", 0, "flight Mach number")
	augFuel := flag.Float64("aug-fuel", 0, "augmentor (afterburner) fuel flow, kg/s")
	augSched := flag.String("aug-schedule", "", "augmentor fuel schedule t:v,t:v")
	nozSched := flag.String("nozzle-schedule", "", "nozzle area factor schedule t:v,t:v")
	csv := flag.Bool("csv", false, "emit the trajectory as CSV on stdout")
	every := flag.Float64("every", 0.05, "print interval during the transient, s")
	writeMaps := flag.String("write-maps", "", "write the default performance map files into this directory and exit")
	traceOut := flag.String("trace", "", "write a Chrome trace-event timeline of the run to this JSON file")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.Parse()
	if err := logx.SetLevelName(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder()
		trace.SetRecorder(rec)
	}

	if *writeMaps != "" {
		if err := writeMapLibrary(*writeMaps); err != nil {
			log.Fatal(err)
		}
		return
	}

	eng, err := engine.NewF100(engine.DefaultF100())
	if err != nil {
		log.Fatal(err)
	}
	eng.Alt, eng.Mach = *alt, *mach
	if *fuel > 0 {
		eng.Fuel = engine.Constant(*fuel)
	}
	if *augFuel > 0 {
		eng.AugFuel = engine.Constant(*augFuel)
	}
	// A schedule flag overrides the constant it schedules.
	for _, f := range []struct {
		text string
		dst  **engine.Schedule
	}{{*fuelSched, &eng.Fuel}, {*augSched, &eng.AugFuel}, {*nozSched, &eng.NozzleArea}} {
		sched, err := engine.ParseSchedule(f.text)
		if err != nil {
			log.Fatal(err)
		}
		if sched != nil {
			*f.dst = sched
		}
	}

	x := append([]float64(nil), eng.DesignState...)
	out, iters, err := eng.Balance(x, engine.SteadyOptions{Method: *steady})
	if err != nil {
		log.Fatalf("steady-state balance: %v", err)
	}
	if !*csv {
		fmt.Printf("steady state (%s, %d iterations):\n", *steady, iters)
		report(0, out)
	}

	m, err := solver.MethodByName(*method)
	if err != nil {
		log.Fatal(err)
	}
	if *csv {
		fmt.Println("t,thrust_N,fuel_kgps,W2_kgps,NL,NH,T4_K,fan_beta")
	}
	nextPrint := *every
	final, err := eng.Transient(x, engine.TransientOptions{
		Method:   m,
		Duration: *transient,
		Step:     *step,
		Observe: func(t float64, o engine.Outputs) {
			if *csv {
				fmt.Printf("%.4f,%.1f,%.4f,%.2f,%.5f,%.5f,%.1f,%.4f\n",
					t, o.Thrust, o.Fuel, o.W2, o.NL, o.NH, o.T4, o.FanBeta)
				return
			}
			if t >= nextPrint {
				report(t, o)
				nextPrint += *every
			}
		},
	})
	if err != nil {
		log.Fatalf("transient: %v", err)
	}
	if !*csv {
		fmt.Printf("final (t=%.2fs, %s):\n", *transient, m)
		report(*transient, final)
	}
	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		logx.For("tess", "").Info("wrote timeline", "spans", len(rec.Spans()), "file", *traceOut)
	}
}

func report(t float64, o engine.Outputs) {
	fmt.Printf("  t=%5.2fs thrust=%7.1f kN=%6.2f fuel=%.3f kg/s W2=%6.2f kg/s NL=%.4f NH=%.4f T4=%6.1f K beta=%.3f\n",
		t, o.Thrust, o.Thrust/1000, o.Fuel, o.W2, o.NL, o.NH, o.T4, o.FanBeta)
}

// writeMapLibrary generates the map files the executive's browser
// widgets reference by default: low/high compressor and turbine maps.
func writeMapLibrary(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, spool := range []string{"low", "high"} {
		cm, err := cmap.GenerateCompressor(spool+"-compressor", cmap.DefaultSpeeds(), 15)
		if err != nil {
			return err
		}
		f, err := os.Create(dir + "/" + spool + "-compressor.map")
		if err != nil {
			return err
		}
		if err := cmap.WriteCompressor(f, cm); err != nil {
			f.Close()
			return err
		}
		f.Close()
		tm, err := cmap.GenerateTurbine(spool+"-turbine", cmap.DefaultSpeeds(), cmap.DefaultPRFactors())
		if err != nil {
			return err
		}
		g, err := os.Create(dir + "/" + spool + "-turbine.map")
		if err != nil {
			return err
		}
		if err := cmap.WriteTurbine(g, tm); err != nil {
			g.Close()
			return err
		}
		g.Close()
		fmt.Printf("wrote %s/%s-compressor.map and %s/%s-turbine.map\n", dir, spool, dir, spool)
	}
	return nil
}
