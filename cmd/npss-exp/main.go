// Command npss-exp regenerates the paper's evaluation artifacts: the
// Table 1 individual-module tests, the Table 2 combined test, the
// Figure 1 control-flow trace, the Figure 2 network inventory, the
// section 4.1 incremental-change scenarios, the section 4.2
// extended-model (lines) scenarios, and the ablation comparisons.
//
// Examples:
//
//	npss-exp -exp table1
//	npss-exp -exp table2 -transient 1.0
//	npss-exp -exp table2 -parallel          # overlap the six remote modules
//	npss-exp -exp table2 -batch             # ...and batch same-host calls
//	npss-exp -exp all
//	npss-exp -exp table2 -parallel -trace out.json
//	                                       # capture a Chrome trace-event
//	                                       # timeline (open in a trace
//	                                       # viewer such as about:tracing)
//	npss-exp -exp dst -seed 42 -ops 60     # one deterministic-simulation
//	                                       # scenario (not part of "all";
//	                                       # it checks invariants rather
//	                                       # than producing an artifact)
//	npss-exp -exp scenario -f scenarios/stress-1000.yaml
//	                                       # a declarative YAML scenario:
//	                                       # fleet templates + weights,
//	                                       # timed fault events, stress
//	                                       # blocks, assertions — run as
//	                                       # one DST cluster simulation
//	npss-exp -exp scenario -f file.yaml -validate
//	                                       # parse + semantic-check only
//	npss-exp -exp scenario -f scenarios/chaos-table2.yaml \
//	    -report out.html -trace out.json
//	                                       # the chaos experiment: Table 2
//	                                       # under the file's faults and
//	                                       # crash, with a self-contained
//	                                       # HTML report of the faulty run:
//	                                       # per-host load timelines,
//	                                       # latency heatmaps, the
//	                                       # critical-path attribution, and
//	                                       # tail-latency exemplars whose
//	                                       # span IDs resolve in out.json
//	npss-exp -exp scenario -f scenarios/chaos-table2.yaml -telemetry :9100
//	                                       # serve /metrics, /statusz,
//	                                       # /flightz, /seriesz, /profilez
//	                                       # and pprof while it runs
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"npss/internal/critpath"
	"npss/internal/exper"
	"npss/internal/logx"
	"npss/internal/report"
	"npss/internal/scenario"
	"npss/internal/telemetry"
	"npss/internal/trace"
)

func main() {
	which := flag.String("exp", "all", "experiment: table1, table2, fig1, fig2, incremental, lines, zooming, ablations, dst, scenario, all")
	transient := flag.Float64("transient", 0.5, "transient length, s")
	step := flag.Float64("step", 5e-4, "integration step, s")
	calls := flag.Int("calls", 200, "operation count for the ablation timings")
	parallel := flag.Bool("parallel", false, "overlap remote module calls (wavefront execution + concurrent hooks)")
	batch := flag.Bool("batch", false, "coalesce simultaneous same-host remote calls into batch envelopes (implies -parallel)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event timeline of the run to this JSON file")
	profileOut := flag.String("profile", "", "write the run's critical-path attribution profile as JSON to this file (implies span recording)")
	netScale := flag.Float64("netscale", 0, "multiply every simulated link's latency by this factor (0 or 1 = the paper's topology)")
	metricsOut := flag.String("metrics", "", "write the run's aggregated metric snapshot as JSON to this file")
	telemetryAddr := flag.String("telemetry", "", "serve live /metrics, /statusz, /flightz, /seriesz, /profilez and pprof on this address while the experiments run")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	seed := flag.Int64("seed", 1, "scenario seed for the dst experiment")
	ops := flag.Int("ops", 40, "operation count for the dst experiment")
	scenarioFile := flag.String("f", "", "scenario YAML file for the scenario experiment")
	validate := flag.Bool("validate", false, "with -exp scenario: parse, compile, and semantic-check the scenario without running it")
	expectFile := flag.String("expect", "", "with -exp scenario: golden expectation file to check the run's fingerprint against")
	expectUpdate := flag.Bool("expect-update", false, "with -expect: rewrite the golden instead of failing on a mismatch")
	reportOut := flag.String("report", "", "write a self-contained HTML report of the dst or scenario run to this file")
	reportJSON := flag.String("report-json", "", "write the machine-readable report bundle (series, events) as JSON to this file")
	seriesInterval := flag.Duration("series-interval", 0, "time-series sampling window, in the run's virtual time (0 picks 1s when -report/-report-json is set)")
	flag.Parse()
	reporting := *reportOut != "" || *reportJSON != ""
	if err := logx.SetLevelName(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	lg := logx.For("npss-exp", "")

	var rec *trace.Recorder
	if *traceOut != "" || *profileOut != "" {
		rec = trace.NewRecorder()
		trace.SetRecorder(rec)
	}
	if *telemetryAddr != "" {
		ts, err := telemetry.Start(*telemetryAddr, telemetry.Config{})
		if err != nil {
			log.Fatal(err)
		}
		defer ts.Close()
		lg.Info("telemetry listening", "addr", ts.Addr())
	}

	// agg accumulates every experiment's metric snapshot for -metrics:
	// the in-process cluster shares one trace set, so merging the
	// per-experiment exports yields the cluster-wide roll-up.
	var agg trace.MetricsSnapshot

	// The dst and scenario experiments write their reports as they
	// finish, because a violation exits nonzero and the report must
	// survive that; reportWritten records it.
	reportWritten := false
	// profileWritten likewise records a profile a run analyzed itself:
	// a dst run's spans live in a run-scoped recorder, and a scenario
	// result carries its run's profile with the run's link traffic.
	profileWritten := false
	// interval is the sampling window a report uses when
	// -series-interval is left at its zero default. Dst and scenario
	// runs sample their own virtual clock.
	interval := *seriesInterval
	if reporting && interval == 0 {
		interval = time.Second
	}

	spec := exper.RunSpec{Transient: *transient, Step: *step, Parallel: *parallel, Batch: *batch, NetScale: *netScale}

	// profileLinks accumulates the runs' per-link traffic so the
	// -profile attribution carries link cost profiles alongside the
	// span-derived host profiles.
	var profileLinks map[string]critpath.LinkIO

	run := map[string]func(){
		"table1": func() {
			fmt.Println("== Table 1: TESS and Schooner individual module tests ==")
			rows := exper.Table1(spec)
			for _, r := range rows {
				profileLinks = exper.MergeLinks(profileLinks, r.Links)
			}
			fmt.Print(exper.FormatTable1(rows))
		},
		"table2": func() {
			fmt.Println("== Table 2: TESS and Schooner combined test ==")
			r := exper.Table2(spec)
			profileLinks = exper.MergeLinks(profileLinks, r.Links)
			fmt.Print(exper.FormatTable2(r))
		},
		"fig1": func() {
			events, err := exper.Fig1()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(exper.FormatFig1(events))
		},
		"fig2": func() {
			out, err := exper.Fig2()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(out)
		},
		"incremental": func() {
			fmt.Println("== Section 4.1: incremental changes ==")
			fmt.Print(exper.FormatScenarios(exper.Incremental()))
		},
		"lines": func() {
			fmt.Println("== Section 4.2: the extended Schooner model (lines) ==")
			fmt.Print(exper.FormatScenarios(exper.Lines()))
		},
		"zooming": func() {
			fmt.Println("== Zooming: mixed-fidelity component substitution ==")
			rows, err := exper.Zooming(nil)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(exper.FormatZooming(rows))
		},
		"ablations": func() {
			fmt.Println("== Ablations ==")
			var all []exper.AblationResult
			rpc, err := exper.RPCvsMsgPass(*calls)
			if err != nil {
				log.Fatal(err)
			}
			all = append(all, rpc...)
			cache, err := exper.NameCache(*calls)
			if err != nil {
				log.Fatal(err)
			}
			all = append(all, cache...)
			utsn, err := exper.UTSvsNative(*calls * 10)
			if err != nil {
				log.Fatal(err)
			}
			all = append(all, utsn...)
			fmt.Print(exper.FormatAblations(all))
		},
		"dst": func() {
			fmt.Println("== DST: deterministic cluster simulation in virtual time ==")
			out, res, ok := exper.DSTReport(*seed, *ops, interval, *profileOut != "" || reporting)
			fmt.Print(out)
			// The run scoped its metric set, as a scenario run does.
			agg.Merge(res.Metrics)
			if res.Profile != nil && *profileOut != "" {
				writeProfile(res.Profile, *profileOut)
				profileWritten = true
			}
			if reporting {
				writeReports(&report.Data{
					Title:   fmt.Sprintf("dst seed=%d ops=%d", *seed, *ops),
					Series:  res.Series,
					Profile: res.Profile,
					Notes: []string{
						"virtual-time series: windows advance with the scenario's simulated clock",
						fmt.Sprintf("invariants held: %v", ok),
					},
				}, *reportOut, *reportJSON)
				reportWritten = true
			}
			if !ok {
				os.Exit(1)
			}
		},
		"scenario": func() {
			if *scenarioFile == "" {
				fmt.Fprintln(os.Stderr, "npss-exp: -exp scenario needs -f <file.yaml>")
				os.Exit(2)
			}
			spec, err := scenario.Load(*scenarioFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "npss-exp: %v\n", err)
				os.Exit(1)
			}
			if _, err := scenario.Compile(spec); err != nil {
				fmt.Fprintf(os.Stderr, "npss-exp: %s: %v\n", *scenarioFile, err)
				os.Exit(1)
			}
			if *validate {
				fmt.Printf("npss-exp: %s: scenario %q ok\n", *scenarioFile, spec.Name)
				return
			}
			if reporting && spec.SeriesInterval == 0 {
				spec.SeriesInterval = interval
			}
			fmt.Printf("== Scenario: %s ==\n", *scenarioFile)
			res, err := scenario.Run(spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "npss-exp: %s: %v\n", *scenarioFile, err)
				os.Exit(1)
			}
			fmt.Print(scenario.Format(res))
			// The run scoped its metric set; fold its snapshot into the
			// -metrics aggregate explicitly.
			agg.Merge(res.DST.Metrics)
			if prof := res.DST.Profile; prof != nil && *profileOut != "" {
				writeProfile(prof, *profileOut)
				profileWritten = true
			}
			if reporting {
				d := scenario.Report(res)
				d.TimelineFile = timelineName(*traceOut)
				writeReports(d, *reportOut, *reportJSON)
				reportWritten = true
			}
			if *expectFile != "" {
				got := scenario.Expectation(spec, res)
				if *expectUpdate {
					if err := os.WriteFile(*expectFile, []byte(got), 0o644); err != nil {
						log.Fatal(err)
					}
					fmt.Printf("npss-exp: wrote expectation to %s\n", *expectFile)
				} else {
					golden, err := os.ReadFile(*expectFile)
					if err != nil {
						fmt.Fprintf(os.Stderr, "npss-exp: %v (run with -expect-update to create it)\n", err)
						os.Exit(1)
					}
					if diff := scenario.DiffExpectation(string(golden), got); diff != "" {
						fmt.Fprintf(os.Stderr, "npss-exp: %s: run diverged from golden %s:\n%s\n",
							*scenarioFile, *expectFile, diff)
						os.Exit(1)
					}
					fmt.Printf("npss-exp: fingerprint matches golden %s\n", *expectFile)
				}
			}
			if res.DST.Violation != nil {
				os.Exit(1)
			}
		},
	}

	// printCounters reports the global trace counters an experiment
	// accumulated — in particular the retry/timeout/failover counters
	// of the fault-tolerant runtime — then clears them so the next
	// experiment reports only its own.
	printCounters := func() {
		agg.Merge(trace.Export())
		if snap := trace.Snapshot(); snap != "" {
			fmt.Println("-- trace counters --")
			fmt.Print(snap)
		}
		trace.Reset()
	}

	if *which == "all" {
		for _, name := range []string{"fig1", "fig2", "table1", "table2", "incremental", "lines", "zooming", "ablations"} {
			run[name]()
			printCounters()
			fmt.Println()
		}
	} else {
		fn, ok := run[*which]
		if !ok {
			fmt.Fprintf(os.Stderr, "npss-exp: unknown experiment %q\n", *which)
			os.Exit(2)
		}
		fn()
		printCounters()
	}

	if rec != nil && *traceOut != "" {
		if err := writeTimeline(rec, *traceOut); err != nil {
			log.Fatal(err)
		}
	}
	if *profileOut != "" && !profileWritten {
		writeProfile(critpath.Analyze(rec.Spans(), profileLinks, rec.Dropped()), *profileOut)
	}
	if reporting && !reportWritten {
		fmt.Fprintln(os.Stderr, "npss-exp: -report/-report-json need the dst or scenario experiment; no report written")
	}
	if *metricsOut != "" {
		data, err := agg.EncodeJSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*metricsOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("npss-exp: wrote %d counters and %d histograms to %s\n",
			len(agg.Counters), len(agg.Hists), *metricsOut)
	}
}

// timelineName is the timeline file a report links exemplar spans to:
// the base name, since report and timeline sit side by side.
func timelineName(traceOut string) string {
	if traceOut == "" {
		return ""
	}
	return filepath.Base(traceOut)
}

// writeProfile writes a critical-path attribution profile as JSON.
func writeProfile(prof *critpath.Profile, path string) {
	data, err := prof.EncodeJSON()
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("npss-exp: wrote attribution profile (%d phases, %d spans, critical path %s) to %s\n",
		len(prof.Phases), prof.Spans, prof.Total.CriticalPath, path)
}

// writeReports renders the HTML and/or JSON report of a dst or
// scenario run.
func writeReports(d *report.Data, htmlOut, jsonOut string) {
	if htmlOut != "" {
		if err := os.WriteFile(htmlOut, report.HTML(*d), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("npss-exp: wrote report (%d series windows, %d events) to %s\n",
			len(d.Series.Windows), len(d.Events), htmlOut)
	}
	if jsonOut != "" {
		data, err := report.JSON(*d)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("npss-exp: wrote report bundle to %s\n", jsonOut)
	}
}

// writeTimeline dumps the recorded spans as Chrome trace-event JSON.
func writeTimeline(rec *trace.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	n := len(rec.Spans())
	fmt.Printf("npss-exp: wrote %d spans to %s", n, path)
	if d := rec.Dropped(); d > 0 {
		fmt.Printf(" (%d dropped at the recorder's span limit)", d)
	}
	fmt.Println()
	return nil
}
