// Command promlint validates Prometheus text-exposition scrapes (the
// output of a /metrics, /seriesz or /profilez endpoint) against the
// subset of format 0.0.4 this repository emits: every sample parses,
// every family is typed exactly once before its samples, label sets
// are well-formed. It lints each file named, or standard input when
// none is, and exits 1 if any fails. CI lints a live run's scrapes in
// one invocation.
//
//	promlint metrics.scrape seriesz.scrape profilez.scrape
//	curl -s http://127.0.0.1:9100/metrics | promlint
package main

import (
	"fmt"
	"io"
	"os"

	"npss/internal/telemetry"
)

func main() {
	ok := true
	if len(os.Args) == 1 {
		data, err := io.ReadAll(os.Stdin)
		ok = lint("stdin", data, err)
	}
	for _, f := range os.Args[1:] {
		data, err := os.ReadFile(f)
		ok = lint(f, data, err) && ok
	}
	if !ok {
		os.Exit(1)
	}
	fmt.Println("promlint: ok")
}

// lint reports whether one scrape was read and lints clean, printing
// why not.
func lint(name string, data []byte, err error) bool {
	if err == nil {
		err = telemetry.Lint(data)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "promlint: %s: %v\n", name, err)
	}
	return err == nil
}
